"""Benchmark entry point.

    python3 bench/run.py --workload survey|fits|laws|sequences --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  It times the set-up of fresh
processes (import genbenford plus load_survey) before and after it runs
the workload in a fresh single-threaded worker process against the
checkout's src/, and
prints one JSON line: correct, attempted, failed and the metrics that
BENCHMARK.json declares (end-to-end with --trace 0, per-layer with
--trace 1).  The worker's full report (per-round and per-operation times,
failures, problems) is written to bench/out/.

--small shrinks every workload's inputs; the smoke test uses it.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_LIMIT_S = 170.0
# set-up is timed in fresh processes, some before the worker and some
# after it, so that a slow spell of the host at one end of the run does not
# set the median
SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 3


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BENFORD_DATA_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(args)} ran past the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in declared["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not args.seconds > 0:
        fail("--seconds must be > 0")
    if not (ROOT / "src" / "genbenford" / "__init__.py").is_file():
        fail(f"no genbenford sources under {ROOT / 'src'}; run from a source checkout")
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + TIME_LIMIT_S

    def setup_probes(count):
        return [run_worker(["--setup-probe"], deadline) for _ in range(count)]

    # one untimed probe first, so every timed one finds compiled bytecode
    setup_probes(1)
    setup = setup_probes(1 if args.small else SETUP_PROBES_BEFORE)
    report = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)]
                        + (["--small"] if args.small else []), deadline)
    setup += setup_probes(0 if args.small else SETUP_PROBES_AFTER)
    report["setup_probe_raw_s"] = [probe["raw_s"] for probe in setup]
    report["setup_probe_scaled_s"] = [probe["scaled_s"] for probe in setup]
    measured = dict(report["metrics"], setup_s=statistics.median(report["setup_probe_scaled_s"]))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail(f"metrics declared but not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}"
    (out_dir / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    for problem in report["problems"]:
        print(f"bench: wrong output: {problem}", file=sys.stderr)

    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
