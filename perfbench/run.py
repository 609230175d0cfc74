"""pgw benchmark: three closed-loop workloads with one client, timed from outside.

    python3 perfbench/run.py --workload {decide,census,arith} --seed N \
        --seconds S --trace {0,1} [--smoke] [--break-fact]

Run it from the root of a source checkout (the directory holding src/pgw).

decide  `pgw construct <g>.pg` on each shipped group, in seeded order
census  `pgw count <g>.pg` (enumerate Aut(G), cross-validate) on the same groups
arith   mul/inv/pow_/comm/conj and verify on seeded inputs, in one process

Every CLI operation is a fresh `python3 -m pgw.cli ... --format json --jobs 1`
child, timed and measured (os.wait4 rusage) by this process; arith runs in
one child of its own (arith.py).  This process and its children are pinned
to one CPU, and times are reported in reference seconds: CPU seconds scaled
by the speed a probe on that CPU saw meanwhile (speed.py).  Passes over the
groups repeat until --seconds have gone by; a pass that has started always
completes.  If the small groups then have fewer than MIN_SMALL_OPS timed ops
(always on census, whose one pass outlasts --seconds), passes over the small
groups alone make them up.
Every output is checked, after the timing, against known facts (facts.py), and
reports must repeat byte for byte across passes apart from their timing.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run (spans.py) with the tracing overhead.  --smoke keeps groups of
order <= 243; --break-fact plants one wrong expected fact, so the checks must
fail.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path

import facts
import spans
import speed
from proc import run_child

WORKLOADS = ("decide", "census", "arith")
COMMAND = {"decide": "construct", "census": "count"}
GROUPS = ("c9", "c3c3", "h27", "x27", "w81", "q8", "m243", "g2187")
ARITH_GROUPS = ("g2187", "m243")
SMOKE_MAX_ORDER = 243
SMOKE_ARITH_GROUPS = ("m243", "w81")

SETUP_REPS = 7  # fresh-interpreter imports timed per run, after one warm-up
MIN_SMALL_OPS = 35  # small_s samples per run; small-group passes top it up
RUN_BUDGET_S = 170.0  # no child may run past this point of the run
MAX_PROBLEMS = 10  # problems printed per run; all are counted

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("demo_s", "s"),
    ("small_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


class Run:
    """One benchmark invocation: paths, the run's deadline and its tallies."""

    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.bench = Path(__file__).resolve().parent
        self.structure = facts.broken() if args.break_fact else facts.STRUCTURE
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def group_path(self, name):
        return str(self.root / "src" / "pgw" / "data" / f"{name}.pg")

    def child(self, argv, probe=True):
        """Run a child python3 process inside the run's time budget."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return None
        return run_child([sys.executable] + argv, self.env, str(self.root), remaining, probe)

    def record(self, what, problems):
        """Count one attempted operation, failed if it has any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{what}: {p}" for p in problems]


def describe(res):
    if res is None:
        return "not run: the run's time budget was spent"
    if res.code is None:
        return "killed at the run's time budget"
    tail = res.stderr.strip().splitlines()[-3:]
    return f"exit {res.code}; stderr: {' | '.join(tail)}"


def last_json_line(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


# ---------------------------------------------------------------- CLI workloads


def cli_groups(args):
    if args.smoke:
        return [g for g in GROUPS if facts.order(g) <= SMOKE_MAX_ORDER]
    return list(GROUPS)


def time_imports(run):
    """Fresh-interpreter `import pgw.cli`: the set-up every CLI operation pays."""
    samples = []
    for rep in range(SETUP_REPS + 1):
        res = run.child(["-c", "import pgw.cli"])
        if res is None or res.code != 0:
            run.record("import pgw.cli", [describe(res)])
            break
        if rep:  # the first import writes bytecode caches; it is not timed
            samples.append(res.ref_s)
    return samples


def check_op(run, cmd, name, code, stdout, first_reports):
    """Check one CLI result; the first report of each op is the one all must match."""
    try:
        report = json.loads(stdout)
    except ValueError:
        run.record(f"{cmd} {name}", [f"exit {code}, stdout is not a JSON report"])
        return
    problems = facts.CHECKS[cmd](name, code, report, run.structure)
    text = facts.strip_timing(report)
    if first_reports.setdefault(name, text) != text:
        problems.append("report differs from the first pass outside its timing section")
    run.record(f"{cmd} {name}", problems)


def cli_pass(run, cmd, order, traced):
    """One pass over the groups; returns [(group, ChildResult)]."""
    results = []
    for name in order:
        argv = [cmd, run.group_path(name), "--format", "json", "--jobs", "1"]
        if traced:
            argv = [str(run.bench / "traced_cli.py")] + argv
        else:
            argv = ["-m", "pgw.cli"] + argv
        results.append((name, run.child(argv)))
    return results


def cost(results):
    """Reference seconds of the ops of a pass that ran to the end."""
    return sum(res.ref_s for _, res in results if res is not None and res.code is not None)


def check_pass(run, cmd, results, first_reports, traced):
    """Check every op of a pass; returns the traced payloads that parsed."""
    payloads = []
    for name, res in results:
        if res is None or res.code is None:
            run.record(f"{cmd} {name}", [describe(res)])
            continue
        code, stdout = res.code, res.stdout
        if traced:
            try:
                payload = last_json_line(res.stdout)
            except ValueError:
                payload = None
            if res.code != 0 or payload is None:
                run.record(f"traced {cmd} {name}", [describe(res)])
                continue
            payloads.append((res, payload))
            code, stdout = payload["code"], payload["stdout"]
        check_op(run, cmd, name, code, stdout, first_reports)
    return payloads


def cli_workload(run, workload):
    args = run.args
    cmd = COMMAND[workload]
    groups = cli_groups(args)
    demo = max(groups, key=facts.order)
    rng = random.Random(args.seed)
    first_reports = {}

    if args.trace:
        order = rng.sample(groups, len(groups))
        plain = cli_pass(run, cmd, order, traced=False)
        check_pass(run, cmd, plain, first_reports, traced=False)
        traced = cli_pass(run, cmd, order, traced=True)
        payloads = check_pass(run, cmd, traced, first_reports, traced=True)
        total = spans.merge([p for _, p in payloads])
        startup = sum(res.wall_s - p["main_s"] for res, p in payloads)
        unattributed = sum(p["main_s"] - p["top_level_s"] for _, p in payloads)
        return spans.layer_metrics(total, cost(traced) / cost(plain), startup, unattributed)

    setup = time_imports(run)
    passes, demo_s, small_s, rss = [], [], [], []

    def measured_pass(names):
        results = cli_pass(run, cmd, rng.sample(names, len(names)), traced=False)
        check_pass(run, cmd, results, first_reports, traced=False)
        for name, res in results:
            if res is not None and res.code is not None:
                (demo_s if name == demo else small_s).append(res.ref_s)
                rss.append(res.maxrss_mb)
        return cost(results)

    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        if time.perf_counter() > run.deadline:
            break
        passes.append(measured_pass(groups))
    # a census pass has only one op per small group; top small_s up to a steady sample
    small = [g for g in groups if g != demo]
    for _ in range(max(0, math.ceil((MIN_SMALL_OPS - len(small_s)) / len(small)))):
        if time.perf_counter() > run.deadline:
            break
        measured_pass(small)
    return {
        "setup_s": setup,
        "pass_s": passes,
        "demo_s": demo_s,
        "small_s": small_s,
        "peak_rss_mb": [max(rss)] if rss else [],
    }


# ---------------------------------------------------------------- arith


def arith_workload(run):
    args = run.args
    names = SMOKE_ARITH_GROUPS if args.smoke else ARITH_GROUPS
    argv = [str(run.bench / "arith.py"), "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    argv += [run.group_path(n) for n in names]
    if args.trace:
        argv.append("--trace")
    if args.break_fact:
        argv.append("--break-fact")
    res = run.child(argv, probe=False)  # arith.py probes its own speed
    try:
        out = last_json_line(res.stdout) if res is not None and res.code == 0 else None
    except ValueError:
        out = None
    if out is None:
        run.record("arith", [describe(res)])
        return None
    run.attempted += out["attempted"]
    run.failed += out["failed"]
    run.problems += [f"arith {p}" for p in out["problems"]]
    if args.trace:
        total = spans.merge([out])
        unattributed = out["work_s"] - out["top_level_s"]
        return spans.layer_metrics(total, out["traced_s"] / out["untraced_s"],
                                   out["import_s"], unattributed)
    demo, small = names
    return {
        "setup_s": out["setup_s"],
        "pass_s": out["pass_s"],
        "demo_s": out["round_s"][demo],
        "small_s": out["round_s"][small],
        "peak_rss_mb": [res.maxrss_mb],
    }


# ---------------------------------------------------------------- output


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="only groups of order <= 243 (self-tests)")
    ap.add_argument("--break-fact", action="store_true",
                    help="plant one wrong expected fact (self-tests)")
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "pgw" / "cli.py").is_file():
        print(f"perfbench: no pgw source tree under {root}; run from a pgw checkout",
              file=sys.stderr)
        return 2

    speed.pin()
    run = Run(root, args)
    if args.workload == "arith":
        samples = arith_workload(run)
    else:
        samples = cli_workload(run, args.workload)

    metrics = {}
    if samples is None or any(not v for v in samples.values() if isinstance(v, list)):
        print("perfbench: the run produced no measurement; its failures follow",
              file=sys.stderr)
    elif args.trace:
        units = dict(spans.per_layer_metrics())
        absent = [n for n in units if n not in samples]
        if absent:
            print("perfbench: absent layer metrics (their pgw attribute is gone): "
                  + ", ".join(absent), file=sys.stderr)
        for name, value in samples.items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"{name}: {value:.6g} {units[name]}")
    else:
        samples["ok_ratio"] = [(run.attempted - run.failed) / run.attempted]
        for name, unit in END_TO_END:
            values = samples[name]
            value = statistics.median(values)
            q1, q3 = quartiles(values)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name}: median {value:.6g} {unit}, quartiles {q1:.6g} .. {q3:.6g}, "
                  f"n = {len(values)}")
        print(f"fail_ratio: {run.failed / run.attempted:.6g} "
              f"({run.failed} of {run.attempted})")

    for p in run.problems[:MAX_PROBLEMS]:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    if len(run.problems) > MAX_PROBLEMS:
        print(f"perfbench: ... {len(run.problems) - MAX_PROBLEMS} more problems",
              file=sys.stderr)
    if not metrics:
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
