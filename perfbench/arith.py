"""The arith workload: pgw's element arithmetic and map verification, in process.

    PYTHONPATH=src python3 perfbench/arith.py --seed 1 --seconds 15 \
        src/pgw/data/g2187.pg src/pgw/data/m243.pg

A round is seven library calls on one seeded group: mul, inv, pow_, comm and
conj on seeded random elements, then verify on a conjugation map (always
accepted) and on a random image tuple (rejected at the first relation that
fails).  Rounds run in passes of PASS_ROUNDS, split evenly between the
groups so that every pass does comparable work.  A pass's inputs are drawn
before it is timed and its results are checked after, against a reference
that this script builds from right multiplication by the generators.

Each round is timed in CPU seconds, and a speed probe (speed.py) runs after
it on the same CPU; the pass's rounds are reported in reference seconds at
the speed the probes saw over the pass.

Set-up (parse, tables and inner table of every group, from cold caches) runs
SETUP_REPS times, with SETUP_PROBES probes before and after each.  With --trace the script instead sets up once and runs
TRACE_PASSES passes untraced, then TRACE_PASSES passes on fresh inputs with
the spans of spans.py.
Prints one JSON line.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
from pgw import automorphisms as au  # noqa: E402
from pgw import groupfile, tables  # noqa: E402
from pgw import presentation as pc  # noqa: E402
from pgw.errors import NotSurjective, RelationViolated  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

PASS_ROUNDS = 200
SETUP_REPS = 5
SETUP_PROBES = 20  # speed probes before and after each set-up
TRACE_PASSES = 2
POW_RANGE = 200  # pow_ exponents are drawn from [-POW_RANGE, POW_RANGE]
MAX_PROBLEMS = 5  # problems printed per run; all are counted


def clear_caches():
    """Empty every memo in pgw, so that set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "pgw" or name.startswith("pgw."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def set_up(paths):
    """Returns (wall seconds, reference seconds, groups)."""
    clear_caches()
    gauge = speed.Gauge()
    gauge.sample(SETUP_PROBES)
    t0, c0 = time.perf_counter(), time.process_time()
    groups = []
    for path in paths:
        P = groupfile.parse_path(path).presentation
        tables.get_tables(P)
        au.is_inner(au.identity_automorphism(P))
        groups.append(P)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    gauge.sample(SETUP_PROBES)
    return wall, gauge.reference_s(cpu), groups


class Reference:
    """One group's arithmetic from its right multiplications by the generators.

    Elements are indexed by the lex rank of their normal forms.  right[j][x]
    is x * f_(j+1), the only products taken from pgw.  x * y walks y's normal
    form f_1^y_1 ... f_n^y_n through those n tables, so the reference holds
    n * N entries and adds little to the peak RSS of the process it runs in.
    """

    def __init__(self, P):
        p, n = P.p, P.n
        self.P = P
        self.N = p**n
        self.strides = [p ** (n - 1 - k) for k in range(n)]
        self.elems = list(itertools.product(range(p), repeat=n))
        self.exps = np.array(self.elems, dtype=np.int32).reshape(self.N, n)
        # the generator steps of each normal form: j repeated y_j times
        self.walk = [tuple(j for j, e in enumerate(y) for _ in range(e)) for y in self.elems]
        self.right = [[self.index(pc.mul(P, e, g)) for e in self.elems]
                      for g in P.generators()]
        self.right_np = np.array(self.right, dtype=np.int32)
        self.inv = [self.power(x, self.N - 1) for x in range(self.N)]  # x^N = 1
        self.gens = [self.index(g) for g in P.generators()]

    def index(self, e):
        if len(e) != len(self.strides):
            raise ValueError(f"result {e!r} is not an exponent vector of length {len(self.strides)}")
        return sum(int(x) * s for x, s in zip(e, self.strides))

    def mul(self, a, b):
        right = self.right
        for j in self.walk[b]:
            a = right[j][a]
        return a

    def power(self, x, k):
        if k < 0:
            x, k = self.inv[x], -k
        acc = 0
        while k:
            if k & 1:
                acc = self.mul(acc, x)
            x = self.mul(x, x)
            k >>= 1
        return acc

    def comm(self, a, b):
        return self.mul(self.mul(self.inv[a], self.inv[b]), self.mul(a, b))

    def conj(self, a, t):
        return self.mul(self.mul(self.inv[t], a), t)

    def accepts(self, img):
        """Verdict on a generator-image map from these tables: relations, then onto."""
        P = self.P

        def word(w):
            acc = 0
            for g, m in w:
                for _ in range(m):
                    acc = self.mul(acc, img[g - 1])
            return acc

        for i in range(1, P.n + 1):
            if self.power(img[i - 1], P.p) != word(P.power_rel[i - 1]):
                return False
        for i in range(2, P.n + 1):
            for j in range(1, i):
                if self.comm(img[i - 1], img[j - 1]) != word(P.comm_rel.get((i, j), ())):
                    return False
        # The relations hold, so x -> img_1^x_1 ... img_n^x_n is the homomorphism
        # the map defines; it is onto iff its N values are distinct.
        values = np.zeros(self.N, dtype=np.int32)
        for k, g in enumerate(img):
            times_g = np.arange(self.N, dtype=np.int32)  # right multiplication by g
            for j in self.walk[g]:
                times_g = self.right_np[j][times_g]
            for step in range(1, P.p):
                rows = self.exps[:, k] >= step
                values[rows] = times_g[values[rows]]
        return np.unique(values).size == self.N


@dataclass(frozen=True)
class Round:
    group: int  # position in the group list
    a: int
    b: int
    c: int
    k: int
    conj_map: tuple  # image indices of the conjugation by c
    random_map: tuple  # seeded random image indices


def draw_pass(rng, refs):
    """PASS_ROUNDS rounds, the same number on each group, in seeded order."""
    order = [gi for gi in range(len(refs)) for _ in range(PASS_ROUNDS // len(refs))]
    rng.shuffle(order)
    rounds = []
    for gi in order:
        ref = refs[gi]
        a, b, c = (rng.randrange(ref.N) for _ in range(3))
        k = rng.randint(-POW_RANGE, POW_RANGE)
        conj_map = tuple(ref.conj(g, c) for g in ref.gens)
        random_map = tuple(rng.randrange(ref.N) for _ in ref.gens)
        rounds.append(Round(gi, a, b, c, k, conj_map, random_map))
    return rounds


def _verdict(P, images):
    try:
        au.verify(au.GenMap(P, images))
    except (RelationViolated, NotSurjective):
        return False
    return True


def run_pass(groups, refs, rounds):
    """Time each round and probe the speed after it.

    Returns (wall seconds of the rounds, reference seconds of the rounds on
    each group, mean reference seconds of a round on each group, results).
    """
    gauge = speed.Gauge()
    wall = 0.0
    cpu = [0.0] * len(groups)
    results = []
    for rd in rounds:
        P = groups[rd.group]
        el = refs[rd.group].elems
        a, b, c = el[rd.a], el[rd.b], el[rd.c]
        conj_map = tuple(el[i] for i in rd.conj_map)
        random_map = tuple(el[i] for i in rd.random_map)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = (pc.mul(P, a, b), pc.inv(P, a), pc.pow_(P, a, rd.k),
                   pc.comm(P, a, b), pc.conj(P, a, c),
                   _verdict(P, conj_map), _verdict(P, random_map))
        except Exception as e:  # a crash fails the round; the loop goes on
            out = e
        cpu[rd.group] += time.process_time() - c0
        wall += time.perf_counter() - t0
        results.append(out)
        gauge.sample()
    ref = [gauge.reference_s(c) for c in cpu]
    counts = [sum(rd.group == gi for rd in rounds) for gi in range(len(groups))]
    return wall, ref, [t / k for t, k in zip(ref, counts)], results


def check_pass(refs, rounds, results, break_fact):
    """Problems found in a pass, one string per failed round."""
    problems = []
    for rd, out in zip(rounds, results):
        ref = refs[rd.group]
        name = ref.P.name
        if isinstance(out, Exception):
            problems.append(f"{name}: round raised {out!r}")
            continue
        want = (
            ref.mul(rd.b, rd.a) if break_fact else ref.mul(rd.a, rd.b),
            ref.inv[rd.a],
            ref.power(rd.a, rd.k),
            ref.comm(rd.a, rd.b),
            ref.conj(rd.a, rd.c),
            ref.accepts(rd.conj_map),
            ref.accepts(rd.random_map),
        )
        try:
            got = tuple(ref.index(x) for x in out[:5]) + out[5:]
        except (TypeError, ValueError) as e:
            problems.append(f"{name}: malformed result {out!r}: {e}")
            continue
        if got != want:
            problems.append(f"{name}: round {rd} gave {got}, expected {want}")
    return problems


def measure(args):
    setup_s = []
    for _ in range(SETUP_REPS):
        _, dt, groups = set_up(args.paths)
        setup_s.append(dt)
    refs = [Reference(P) for P in groups]
    rng = random.Random(args.seed)
    pass_s, problems, rounds_run = [], [], 0
    round_s = {P.name: [] for P in groups}
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < args.seconds:
        rounds = draw_pass(rng, refs)
        _, ref_s, mean_round_s, results = run_pass(groups, refs, rounds)
        pass_s.append(sum(ref_s))
        for P, x in zip(groups, mean_round_s):
            round_s[P.name].append(x)
        problems += check_pass(refs, rounds, results, args.break_fact)
        rounds_run += len(rounds)
    return {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "round_s": round_s,
        "attempted": rounds_run,
        "failed": len(problems),
        "problems": problems[:MAX_PROBLEMS],
    }


def measure_traced(args):
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    setup_traced, _, groups = set_up(args.paths)
    restore()
    refs = [Reference(P) for P in groups]
    rng = random.Random(args.seed)

    def replay():
        # fresh inputs for each replay, so no memo is warmed for the traced one
        wall, ref, problems, rounds_run = 0.0, 0.0, [], 0
        for _ in range(TRACE_PASSES):
            rounds = draw_pass(rng, refs)
            dt, ref_s, _, results = run_pass(groups, refs, rounds)
            wall += dt
            ref += sum(ref_s)
            problems += check_pass(refs, rounds, results, args.break_fact)
            rounds_run += len(rounds)
        return wall, ref, problems, rounds_run

    _, untraced_s, problems, untraced_rounds = replay()
    spans.install(tracer)
    traced_wall, traced_s, traced_problems, traced_rounds = replay()
    problems += traced_problems
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "import_s": _IMPORT_S,
        "work_s": setup_traced + traced_wall,
        "attempted": untraced_rounds + traced_rounds,
        "failed": len(problems),
        "problems": problems[:MAX_PROBLEMS],
        **tracer.dump(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", help="group files")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--break-fact", action="store_true",
                    help="check mul against b*a instead of a*b (self-test)")
    args = ap.parse_args(argv)
    speed.pin()
    result = measure_traced(args) if args.trace else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
