"""Command-line front end.

    pgw {info|check|construct|count|demo} [<file>] [--report <path>] [--format {text|json}]
    pgw {construct|count|demo} ... [--budget <sec>] [--jobs <k>]
    pgw {construct|demo} ... [--with-oracle]

Exit codes: 0 success, 1 hypothesis not applicable, 2 input errors,
3 internal contradiction (a certificate or cross-check failed, which means
a bug, not bad input), 130 interrupted (Ctrl-C).

Only count and --with-oracle load the oracle, and with it numpy.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import automorphisms as au
from . import corpus
from . import groupfile
from . import hypotheses as hy
from . import presentation as pc
from . import report as rp
from . import structure as st
from .errors import (
    BadDefinition,
    BadWeight,
    CentralizerNotMaximal,
    CertificationFailed,
    ConsistencyViolation,
    InnerWitnessFound,
    Mismatch,
    MissingDefinitions,
    NoEligibleU,
    NotSurjective,
    OracleTimeout,
    PreconditionFailed,
    PresentationSyntaxError,
    RelationViolated,
    SizeCap,
    WorkerDied,
)

_INPUT_ERRORS = (
    PresentationSyntaxError,
    ConsistencyViolation,
    SizeCap,
    BadWeight,
    BadDefinition,
    MissingDefinitions,
    OracleTimeout,
    WorkerDied,
    OSError,
)
_CONTRADICTIONS = (
    CertificationFailed,
    InnerWitnessFound,
    Mismatch,
    NoEligibleU,
    CentralizerNotMaximal,
    RelationViolated,
    NotSurjective,
    PreconditionFailed,
)


def _parser():
    ap = argparse.ArgumentParser(
        prog="pgw",
        description="non-inner automorphisms of finite p-groups "
        "from power-commutator presentations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_text, with_file=True):
        sp = sub.add_parser(name, help=help_text)
        if with_file:
            sp.add_argument(
                "file",
                nargs="?",
                help="group file; omitted means the built-in example group",
            )
        sp.add_argument("--report", default=None, metavar="PATH",
                        help="write the JSON report to PATH")
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        help="stdout format")
        return sp

    add("info", "structural summary: order, class, center, Frattini, maximals")
    add("check", "decide the theorem hypotheses")
    construct = add("construct", "build and certify the non-inner automorphism")
    count = add("count", "enumerate Aut(G) and cross-validate the tallies")
    demo = add("demo", "run the full pipeline on the built-in example group, "
               "asserting every expected fact", with_file=False)
    for sp in (construct, demo):
        sp.add_argument("--with-oracle", action="store_true", dest="with_oracle",
                        help="also enumerate the full automorphism group")
    for sp in (construct, count, demo):
        sp.add_argument("--budget", type=float, default=None, metavar="SEC",
                        help="wall-clock budget for the oracle")
        sp.add_argument("--jobs", type=int, default=1, metavar="K",
                        help="worker processes for the oracle")
    return ap


def _load(args):
    name = getattr(args, "file", None)
    if name is None:
        return corpus.demo()
    return groupfile.parse_path(name).presentation


def _emit(args, rep, extra_lines=()):
    text = rp.to_json(rep) if args.format == "json" else rp.render_text(rep)
    if args.format == "text":
        for line in extra_lines:
            text += line + "\n"
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(rp.to_json(rep))


def _run_oracle(P, args):
    from . import oracle as orc

    count = orc.enumerate_automorphisms(P, budget=args.budget, jobs=args.jobs)
    ok = orc.cross_validate(P, precomputed=count)
    return count, rp.oracle_section(count, ok)


def _cmd_info(P, args, t0):
    rep = rp.build(P, timing={"total_s": time.monotonic() - t0})
    _emit(args, rep)
    return 0


def _cmd_check(P, args, t0):
    h = hy.check_theorem_hypotheses(P)
    rep = rp.build(
        P,
        hypotheses=h.to_dict(P),
        timing={"total_s": time.monotonic() - t0},
    )
    _emit(args, rep)
    return 0 if h.theorem_applicable else 1


def _cmd_construct(P, args, t0):
    h = hy.check_theorem_hypotheses(P)
    if not h.theorem_applicable:
        rep = rp.build(
            P,
            hypotheses=h.to_dict(P),
            timing={"total_s": time.monotonic() - t0},
        )
        _emit(args, rep, extra_lines=["hypotheses not applicable; no witness constructed"])
        return 1
    w = au.construct_theorem_witness(P)
    oracle_sec = None
    elapsed_oracle = None
    if args.with_oracle:
        count, oracle_sec = _run_oracle(P, args)
        elapsed_oracle = count.elapsed
    timing = {"total_s": time.monotonic() - t0}
    if elapsed_oracle is not None:
        timing["oracle_s"] = elapsed_oracle
    rep = rp.build(
        P,
        hypotheses=h.to_dict(P),
        witness=rp.witness_section(P, w),
        verification=rp.verification_section(P, w),
        oracle=oracle_sec,
        timing=timing,
    )
    _emit(args, rep)
    return 0


def _cmd_count(P, args, t0):
    count, oracle_sec = _run_oracle(P, args)
    rep = rp.build(
        P,
        oracle=oracle_sec,
        timing={"total_s": time.monotonic() - t0, "oracle_s": count.elapsed},
    )
    _emit(args, rep)
    return 0


def _demo_check(lines, fact, ok):
    lines.append(("ok" if ok else "FAIL") + f": {fact}")
    if not ok:
        raise Mismatch(f"demo expectation failed: {fact}")


def _cmd_demo(args, t0):
    P = corpus.demo()
    lines = []
    chk = lambda fact, ok: _demo_check(lines, fact, ok)

    chk("|G| = 3^7 = 2187", P.order == 2187)
    chk("nilpotency class = 4", st.nilpotency_class(P) == 4)

    Z = st.center(P)
    f = {i: P.generator(i) for i in range(1, 8)}
    chk("Z(G) = <f7> of order 3",
        Z.order == 3 and Z == st.closure(P, [f[7]]))
    chk("G is monolithic", hy.is_monolithic(P))

    F = st.frattini(P)
    chk("Phi(G) = <f3,f4,f5,f6,f7> of order 243",
        F.order == 243
        and F == st.closure(P, [f[3], f[4], f[5], f[6], f[7]]))
    chk("Phi(G) is non-abelian", not st.is_abelian(P, F))

    maxs = st.maximal_subgroups(P)
    chk("exactly 4 maximal subgroups", len(maxs) == 4)
    chk("all maximal subgroups non-abelian",
        all(not st.is_abelian(P, M) for M in maxs))

    printed = [
        ([f[1]], [f[6], f[7]]),
        ([f[2]], [f[5], f[7]]),
        ([pc.mul(P, f[1], pc.pow_(P, f[2], 2))],
         [pc.mul(P, pc.mul(P, pc.pow_(P, f[5], 2), f[6]), f[7]), pc.pow_(P, f[7], 2)]),
        ([pc.mul(P, f[1], f[2])],
         [pc.mul(P, pc.mul(P, f[5], f[6]), pc.pow_(P, f[7], 2)), f[7]]),
    ]
    tail = [f[3], f[4], f[5], f[6], f[7]]
    by_set = {M: M for M in maxs}
    for k, (head, zgens) in enumerate(printed, start=1):
        Mk = st.closure(P, head + tail)
        hit = by_set.pop(Mk, None)
        chk(f"M{k} matches a computed maximal subgroup as an element set", hit is not None)
        Zk = st.closure(P, zgens)
        chk(f"Z(M{k}) matches as an element set",
            hit is not None
            and st.center_of(P, hit) == Zk)
    chk("the four maximal subgroups are exactly M1..M4", not by_set)

    h = hy.check_theorem_hypotheses(P)
    chk("[Z(M), g] <= Z(G) for every maximal M and g outside M", h.zm_condition)
    chk("theorem hypotheses all hold", h.theorem_applicable)

    images = list(P.generators())
    images[1] = pc.mul(P, f[2], f[6])
    alpha = au.verify(au.GenMap(parent=P, images=tuple(images)))
    chk("printed map (f2 -> f2 f6, others fixed) is an automorphism", True)
    chk("printed automorphism has order 3", au.aut_order(alpha) == 3)
    chk("printed automorphism is non-inner", not au.is_inner(alpha)[0])
    chk("printed automorphism fixes Phi(G) elementwise",
        au.fixes_elementwise(alpha, F))

    w = au.construct_theorem_witness(P)
    chk("witness construction succeeds", True)
    chk("constructed automorphism has order 3", au.aut_order(w.A) == 3)
    chk("constructed automorphism is non-inner", not au.is_inner(w.A)[0])
    chk("constructed automorphism fixes Phi(G) elementwise",
        au.fixes_elementwise(w.A, F))

    oracle_sec = None
    timing = {}
    if args.with_oracle:
        count, oracle_sec = _run_oracle(P, args)
        timing["oracle_s"] = count.elapsed
        chk("|Aut(G)| = 4374", count.total == 4374)
        chk("|Inn(G)| = 729", count.inner == 729)
        chk("oracle sees an order-3 non-inner automorphism fixing Phi(G)",
            count.order_p_noninner_fixing_frattini >= 1)

    timing["total_s"] = time.monotonic() - t0
    rep = rp.build(
        P,
        hypotheses=h.to_dict(P),
        witness=rp.witness_section(P, w),
        verification=rp.verification_section(P, w),
        oracle=oracle_sec,
        timing=timing,
    )
    _emit(args, rep, extra_lines=lines + ["demo: all expectations hold"])
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        if args.command == "demo":
            return _cmd_demo(args, t0)
        P = _load(args)
        if args.command == "info":
            return _cmd_info(P, args, t0)
        if args.command == "check":
            return _cmd_check(P, args, t0)
        if args.command == "construct":
            return _cmd_construct(P, args, t0)
        return _cmd_count(P, args, t0)
    except _INPUT_ERRORS as e:
        print(f"pgw: error: {e}", file=sys.stderr)
        return 2
    except _CONTRADICTIONS as e:
        print(f"pgw: internal contradiction: {e.__class__.__name__}: {e}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:  # any oracle workers were stopped on the way out
        print("pgw: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
