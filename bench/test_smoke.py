"""Smoke test of the benchmark at reduced sizes (about a minute):

    python3 -m pytest -q bench/test_smoke.py

Every workload runs once untraced and once traced with --small.  Each run
must be correct, emit exactly the metrics BENCHMARK.json declares for its
mode, and fail only the known fault operations.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
KNOWN_FAULTS = {
    "survey": set(),
    "fits": set(),
    "laws": {"laws/pb(0.05,1,1e+16)", "laws/pb(0.05,1,1e+18)"},
    "sequences": {"sequences/fibonacci(30000)", "sequences/catalan(8000)"},
}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_workload_emits_declared_metrics(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1

    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    for m in DECLARED["end_to_end"]:
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0

    report = json.loads((BENCH / "out" / f"{workload}-seed7-trace{trace}-small.json").read_text())
    failed_ops = {f.split(": ")[0] for f in report["failures"]}
    assert failed_ops == KNOWN_FAULTS[workload]
    assert (result["failed"] > 0) == bool(KNOWN_FAULTS[workload])
    if trace:
        assert report["counts_varying_between_rounds"] == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("fits", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
