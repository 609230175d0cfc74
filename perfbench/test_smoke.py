"""Self-tests of the benchmark, in smoke mode (groups of order <= 243 only).

    python3 -m pytest perfbench

They check that every metric named in BENCHMARK.json is printed with its
unit, that a planted wrong fact makes the run fail, that the benchmark
refuses to run without a source tree, that the tracer survives a missing
module attribute, and that the speed probe computes real products.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("decide", "census", "arith")


def run_bench(*extra, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1", "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    out = result(run_bench("--workload", workload, "--trace", "0"))
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_with_units(workload):
    out = result(run_bench("--workload", workload, "--trace", "1"))
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("per_layer")
    assert out["correct"] and out["failed"] == 0


def test_per_layer_names_match_the_tracer():
    assert declared("per_layer") == dict(spans.per_layer_metrics())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_fact_raises_fail_ratio(workload):
    proc = run_bench("--workload", workload, "--trace", "0", "--break-fact")
    out = result(proc)
    assert not out["correct"]
    assert 0 < out["failed"] <= out["attempted"]
    assert out["metrics"]["ok_ratio"]["value"] < 1
    assert "fail_ratio: 0 " not in proc.stdout
    assert "FAILED" in proc.stderr


def test_counts_repeat_exactly():
    runs = [result(run_bench("--workload", "decide", "--trace", "1")) for _ in range(2)]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items()
         if v["unit"] in ("count", "bytes") or k.endswith("_ratio") and k != "trace.overhead_ratio"}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["structure.rank_calls"] > 0


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "decide", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_attribute_is_reported_absent(monkeypatch):
    from pgw import structure

    monkeypatch.delattr(structure, "rank")
    tracer = spans.Tracer()
    spans.install(tracer)()  # install, then undo at once
    assert tracer.absent == ["structure.rank"]
    metrics = spans.layer_metrics(spans.merge([tracer.dump()]), 1.0, 0.0, 0.0)
    assert "structure.rank_s" not in metrics
    assert "structure.rank_calls" not in metrics
    assert "structure.frattini_s" in metrics


def test_speed_probe_multiplies_like_pgw():
    from pgw import groupfile
    from pgw import presentation as pc

    P = groupfile.parse_path(str(ROOT / "src" / "pgw" / "data" / "g2187.pg")).presentation
    b = (2, 1, 0, 1, 0, 2, 0)
    assert pc.word_of(b) == speed._WORD
    x = (1, 0, 2, 0, 1, 0, 0)
    for _ in range(30):
        y = speed._collect(list(x), speed._WORD)
        assert y == pc.mul(P, x, b)
        x = y
