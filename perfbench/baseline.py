"""Run the benchmark on seeds 1..10 of every workload and summarize the runs.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

For each workload of BENCHMARK.json: RUNS untraced runs of run_seconds, one
per seed, then one traced run on seed 1.  Each end-to-end metric gets the
median, quartiles and spread (quartile distance over median) of its values,
the statistic the benchmark bounds are checked against.  The machine is
recorded with the numbers.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write the summary here (default: stdout)")
    args = ap.parse_args()

    out = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            res = run_once(workload, seed, spec["run_seconds"], 0)
            print(workload, seed, json.dumps(res), file=sys.stderr, flush=True)
            runs.append(res)
        traced = run_once(workload, 1, spec["run_seconds"], 1)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r in runs])
                for name in runs[0]["metrics"]
            },
            "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    text = json.dumps(out, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
