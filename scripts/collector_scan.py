"""Time pgw's element arithmetic per call, in process, at p = 3, 5, 7, 31 and 97.

    python3 scripts/collector_scan.py [--seed 1] [--reps 5] [--primes P ...]
        [--file GROUP.pg ...] [--memo-keys B] [--memo-tails T]

Each group is the FAMILY text of scripts/derive_corpus.py (C_{p^3} x| C_{p^2},
m243 at p = 3), parsed and validated once; with p = 3 also comes c243h27 below,
whose first pc level is central with 3^7 tails.  A repetition draws fresh seeded random
elements and times presentation.mul, inv, comm and conj on them,
presentation.pow_ with k drawn from [-200, 200], and automorphisms.verify on
the conjugation map by a random element (always accepted), in process time
per call.
The first repetition of each group starts from a freshly parsed presentation,
so any per-presentation memo is cold there and warm after it.  The script
imports pgw from the src directory of the checkout it lives in, whatever
PYTHONPATH says, so each checkout is timed by its own copy.  Alternating
fresh interpreters of two checkouts cannot resolve a change of a few percent
on a shared host: whole interpreters run up to 1.5x slow, and mul at p = 31
read 11.4-19.6 us across 20 interpreters of two near-identical trees on a
2-CPU Linux host.  For that, time both trees in one interpreter: import the
second tree's pgw under another package name, give each its own parsed
presentation, and time them in alternating blocks on fresh seeded inputs,
with a run of one tree against itself as the control for what the blocks
can resolve (the in_process.interleaved_in_process entry of
BENCH_fixedcost.json; there the control read within 0.6% and the method
resolved 1-2%).
--file adds the group of a .pg file, under its file name.  --memo-keys B
and --memo-tails T set presentation.MEMO_KEYS and MEMO_TAILS, the largest
key count and tail count of a pc level that the collector memoizes, before
any group is parsed (0 memoizes no level).

Prints one JSON object: for each group and operation, the per-call time of
every repetition (us) and their median, plus the parse time and, where the
collector keeps a tail memo, its entry count after the last repetition.
"""

import argparse
import importlib.util
import json
import pathlib
import platform
import random
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pgw import automorphisms as au  # noqa: E402
from pgw import groupfile  # noqa: E402
from pgw import presentation as pc  # noqa: E402

PRIMES = (3, 5, 7, 31, 97)
POW_RANGE = 200  # the arith workload's range of pow_ exponents

# C_{3^5} x h27, with f_1, the generator of C_{3^5}, first: f_1 is central,
# so its level takes 3^7 - 1 = 2,186 keys, within MEMO_KEYS, while its
# 2,187 tails are over the 729-tail bound the memo had before.  No shipped
# group has such a level.
C243H27 = """name c243h27
p 3
n 8
pow 1 = g5^1
pow 5 = g6^1
pow 6 = g7^1
pow 7 = g8^1
comm 3 2 = g4^1
def 4 = comm 3 2
def 5 = pow 1
def 6 = pow 5
def 7 = pow 6
def 8 = pow 7
"""


def family_text(p):
    path = ROOT / "scripts" / "derive_corpus.py"
    spec = importlib.util.spec_from_file_location("derive_corpus", path)
    derive_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(derive_corpus)
    return derive_corpus.FAMILY.format(order=p**5, p=p, q=p - 1)


def calls(p):
    """(mul, inv, comm and conj calls, pow_ and verify calls) per repetition."""
    return (200, 50) if p < 31 else (100, 20)


def per_call_us(fn, args):
    t0 = time.process_time()
    for a in args:
        fn(*a)
    return (time.process_time() - t0) / len(args) * 1e6


def memo_entries(P):
    """Entries in P's tail memo, or None for a collector without one."""
    tails = P._memo.get(pc._fresh_tails)
    if tails is None:
        return None
    dicts = {id(d): d for level in tails for d in level[1] or () if d is not None}
    return sum(map(len, dicts.values()))


def scan_group(name, text, seed, reps):
    t0 = time.process_time()
    P = groupfile.parse_text(text, source=name).presentation
    p = P.p
    parse_ms = (time.process_time() - t0) * 1e3
    rng = random.Random(seed * 1000 + p)
    n_mul, n_pow = calls(p)

    def element():
        return tuple(rng.randrange(p) for _ in range(P.n))

    ops = {"mul_us": [], "inv_us": [], "pow__us": [], "comm_us": [], "conj_us": [], "verify_us": []}
    for _ in range(reps):
        pairs = [(P, element(), element()) for _ in range(n_mul)]
        singles = [(P, element()) for _ in range(n_mul)]
        powers = [(P, element(), rng.randint(-POW_RANGE, POW_RANGE)) for _ in range(n_pow)]
        maps = [(au.GenMap(P, tuple(pc.conj(P, g, t) for g in P.generators())),)
                for t in (element() for _ in range(n_pow))]
        ops["mul_us"].append(per_call_us(pc.mul, pairs))
        ops["inv_us"].append(per_call_us(pc.inv, singles))
        ops["pow__us"].append(per_call_us(pc.pow_, powers))
        ops["comm_us"].append(per_call_us(pc.comm, pairs))
        ops["conj_us"].append(per_call_us(pc.conj, pairs))
        ops["verify_us"].append(per_call_us(au.verify, maps))
    out = {"parse_ms": round(parse_ms, 3), "mul_calls": n_mul, "pow__calls": n_pow,
           "verify_calls": n_pow, "memo_entries": memo_entries(P)}
    for name, times in ops.items():
        out[name] = round(statistics.median(times), 2)
        out[name + "_reps"] = [round(t, 2) for t in times]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--primes", type=int, nargs="+", default=PRIMES)
    ap.add_argument("--file", type=pathlib.Path, nargs="+", default=(), help="also scan these .pg files")
    ap.add_argument("--memo-keys", type=int, help="set presentation.MEMO_KEYS")
    ap.add_argument("--memo-tails", type=int, help="set presentation.MEMO_TAILS")
    args = ap.parse_args(argv)
    if args.memo_tails is not None:
        pc.MEMO_TAILS = args.memo_tails
    if args.memo_keys is not None:
        if not hasattr(pc, "MEMO_KEYS"):
            ap.error("this checkout's collector has no MEMO_KEYS")
        pc.MEMO_KEYS = args.memo_keys
    result = {
        "python": platform.python_version(),
        "seed": args.seed,
        "reps": args.reps,
        "memo_keys": getattr(pc, "MEMO_KEYS", None),
        "memo_tails": getattr(pc, "MEMO_TAILS", None),
        "groups": {},
    }
    for p in args.primes:
        groups = [(f"m_p{p}", family_text(p))] + [("c243h27", C243H27)] * (p == 3)
        for name, text in groups:
            result["groups"][name] = scan_group(name, text, args.seed, args.reps)
    for path in args.file:
        result["groups"][path.stem] = scan_group(path.stem, path.read_text(), args.seed, args.reps)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
