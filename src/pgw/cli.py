"""Command-line front end.

    pgw {info|check|construct|count|demo} [<file>] [--report <path>] [--format {text|json}]
    pgw {construct|count|demo} ... [--budget <sec>] [--jobs <k>]
    pgw {construct|demo} ... [--with-oracle]

Every subcommand is one pipeline that runs only the stages it needs: the
hypotheses for check, construct and demo; the witness when they hold (not
for check); the oracle for count and --with-oracle.  One report follows.
demo is that pipeline on the built-in group, followed by its fact list,
which reads the pipeline's results.

Exit codes: 0 success, 1 hypothesis not applicable, 2 input errors (an
errors.InputError, an OSError, or a flag argparse rejects, such as a
--budget that is negative or not finite or a --jobs below 1), 3 internal
contradiction (any other PgwError, or a failed assertion: a certificate,
cross-check or invariant failed, which means a bug, not bad input), 130
interrupted (Ctrl-C).

Only count and --with-oracle load the oracle and its tables; multiprocessing
is loaded only for --jobs above 1.  No command needs a package outside the
standard library.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import automorphisms as au
from . import corpus
from . import groupfile
from . import hypotheses as hy
from . import presentation as pc
from . import report as rp
from . import structure as st
from .errors import InputError, Mismatch, PgwError


def _at_least(convert, low, what):
    """An argparse type: convert(text), which must lie in [low, inf)."""

    def parse(text):
        value = convert(text)
        if not low <= value < math.inf:  # nan fails both
            raise argparse.ArgumentTypeError(f"need {what}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # text convert rejects reads "invalid float value"
    return parse


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
        sp.add_argument("--budget", type=_at_least(float, 0, "a finite number of seconds >= 0"),
                        default=None, metavar="SEC", help="wall-clock budget for the oracle")
        sp.add_argument("--jobs", type=_at_least(int, 1, "a whole number >= 1"), default=1,
                        metavar="K", help="worker processes for the oracle")
    return ap


def _demo_facts(P, h, w, count):
    """(fact, holds) for each stored fact about the built-in group, in order;
    h, w and count are the pipeline's hypotheses, witness and oracle count
    (None without --with-oracle)."""
    f = {i: P.generator(i) for i in range(1, 8)}
    yield "|G| = 3^7 = 2187", P.order == 2187
    yield "nilpotency class = 4", st.nilpotency_class(P) == 4
    Z = st.center(P)
    yield "Z(G) = <f7> of order 3", Z.order == 3 and Z == st.closure(P, [f[7]])
    yield "G is monolithic", hy.is_monolithic(P)
    F = st.frattini(P)
    yield ("Phi(G) = <f3,f4,f5,f6,f7> of order 243",
           F.order == 243 and F == st.closure(P, [f[3], f[4], f[5], f[6], f[7]]))
    yield "Phi(G) is non-abelian", not st.is_abelian(P, F)
    maxs = st.maximal_subgroups(P)
    yield "exactly 4 maximal subgroups", len(maxs) == 4
    yield "all maximal subgroups non-abelian", all(not st.is_abelian(P, M) for M in maxs)

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
        hit = by_set.pop(st.closure(P, head + tail), None)
        yield f"M{k} matches a computed maximal subgroup as an element set", hit is not None
        yield (f"Z(M{k}) matches as an element set",
               hit is not None and st.center_of(P, hit) == st.closure(P, zgens))
    yield "the four maximal subgroups are exactly M1..M4", not by_set

    yield "[Z(M), g] <= Z(G) for every maximal M and g outside M", h.zm_condition
    yield "theorem hypotheses all hold", h.theorem_applicable

    images = list(P.generators())
    images[1] = pc.mul(P, f[2], f[6])
    alpha = au.verify(au.GenMap(parent=P, images=tuple(images)))
    yield "printed map (f2 -> f2 f6, others fixed) is an automorphism", True
    yield "printed automorphism has order 3", au.aut_order(alpha) == 3
    yield "printed automorphism is non-inner", not au.is_inner(alpha)[0]
    yield "printed automorphism fixes Phi(G) elementwise", au.fixes_elementwise(alpha, F)

    yield "witness construction succeeds", w is not None
    yield "constructed automorphism has order 3", au.aut_order(w.A) == 3
    yield "constructed automorphism is non-inner", not au.is_inner(w.A)[0]
    yield "constructed automorphism fixes Phi(G) elementwise", au.fixes_elementwise(w.A, F)

    if count is not None:
        yield "|Aut(G)| = 4374", count.total == 4374
        yield "|Inn(G)| = 729", count.inner == 729
        yield ("oracle sees an order-3 non-inner automorphism fixing Phi(G)",
               count.order_p_noninner_fixing_frattini >= 1)


def _run(args, t0):
    """The stages args.command needs, one report on stdout (and in
    --report), and the exit code."""
    command = args.command
    name = getattr(args, "file", None)
    P = corpus.demo() if name is None else groupfile.parse_path(name).presentation
    h = w = count = None
    sections, lines = {}, []
    if command in ("check", "construct", "demo"):
        h = hy.check_theorem_hypotheses(P)
        sections["hypotheses"] = h.to_dict()
        if command != "check" and h.theorem_applicable:
            w = au.construct_theorem_witness(P)
            sections["witness"] = rp.witness_section(P, w)
            sections["verification"] = rp.verification_section(P)
        elif command == "construct":
            lines.append("hypotheses not applicable; no witness constructed")
    if command == "count" or (w is not None and args.with_oracle):
        from . import oracle as orc

        count = orc.enumerate_automorphisms(P, budget=args.budget, jobs=args.jobs)
        sections["oracle"] = rp.oracle_section(count, orc.cross_validate(P, precomputed=count))
    if command == "demo":
        for fact, holds in _demo_facts(P, h, w, count):
            if not holds:
                raise Mismatch(f"demo expectation failed: {fact}")
            lines.append(f"ok: {fact}")
        lines.append("demo: all expectations hold")

    timing = {"total_s": time.monotonic() - t0}
    if count is not None:
        timing["oracle_s"] = count.elapsed
    rep = rp.build(P, **sections, timing=timing)
    if args.format == "json":
        sys.stdout.write(rp.to_json(rep))
    else:
        sys.stdout.write(rp.render_text(rep) + "".join(line + "\n" for line in lines))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(rp.to_json(rep))
    return 1 if h is not None and not h.theorem_applicable else 0


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _run(args, time.monotonic())
    except (InputError, OSError) as e:
        print(f"pgw: error: {e}", file=sys.stderr)
        return 2
    except (PgwError, AssertionError) as e:
        print(f"pgw: internal contradiction: {e.__class__.__name__}: {e}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:  # any oracle workers were stopped on the way out
        print("pgw: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
