"""Run one workload in this (fresh, single-threaded) process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--small]
    python3 bench/worker.py --setup-probe

`run.py` starts this with PYTHONPATH pointing at the checkout's src/.  The
last line of stdout is one JSON object.  With --trace 0 the whole budget
goes to untraced rounds.  With --trace 1 the first half goes to untraced
rounds and the rest to rounds with the tracer installed; the per-layer
metrics come from the traced rounds, and the difference between the two
scaled round times is the tracing overhead.

Every operation's time is also scaled to the host's current speed (see
`calibrate`); `scaled_round_s` is the sum over the operations of each
one's median scaled time.
"""
from __future__ import annotations

import argparse
import json
import marshal
import pickle
import resource
import statistics
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
# per-round tracer counters that are counts, not times; they are not scaled
COUNT_SUFFIXES = (".calls", ".evaluations", ".terms", ".values", ".decimal_digits",
                  ".samples")


# The set-up probe scales its time like the rounds do (see `calibrate`), by
# a pure-Python reference computation timed just before and just after it:
# an integer loop, and compiling, marshalling and unmarshalling a module's
# worth of source, the kinds of work an import does.  It must not import
# numpy or scipy, whose import is part of what the probe times.  In 24
# fresh processes on the host the reference figures come from, this
# halved the quartile spread of the set-up time (27% to 12.5%).
SETUP_REFERENCE_S = 0.0100
_REFERENCE_SOURCE = "\n".join(f"def f{i}(x):\n    return [x * {i} + j for j in range(10)]"
                              for i in range(200))


def python_reference_s() -> float:
    """Median seconds of three passes of the pure-Python reference."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i % 7
        marshal.loads(marshal.dumps(compile(_REFERENCE_SOURCE, "<reference>", "exec")))
        times.append(perf_counter() - t0)
    return statistics.median(times)


def set_up() -> tuple[float, float]:
    """Seconds to import genbenford and to load the bundled survey."""
    t0 = perf_counter()
    import genbenford
    t1 = perf_counter()
    genbenford.load_survey()
    t2 = perf_counter()
    if SRC not in Path(genbenford.__file__).resolve().parents:
        raise SystemExit(f"genbenford was imported from {genbenford.__file__}, not {SRC}")
    return t1 - t0, t2 - t1


class Raised:
    """Output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"[:300]


def run_rounds(ops, budget: float, meter, tracer=None) -> list:
    """Whole rounds until the next would likely end past `budget` seconds
    (at least one).  Operations are timed on the meter's clock, which
    leaves out its reference passes.  Returns one dict per round: the
    (start, end) of each operation, its outputs and the tracer counters
    of the round (or None)."""
    rounds = []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        t_round = perf_counter()
        outputs, spans = [], []
        for op in ops:
            t0 = meter.now()
            try:
                out = op.run()
            except Exception as exc:  # the operation failed; the run goes on
                out = Raised(exc)
            spans.append((t0, meter.now()))
            outputs.append(out)
        counters = None if tracer is None else (dict(tracer.stats), list(tracer.fit_pb_ms))
        rounds.append({"wall_s": perf_counter() - t_round, "spans": spans,
                       "outputs": outputs, "counters": counters})
        elapsed = perf_counter() - start
        if elapsed + statistics.median(r["wall_s"] for r in rounds) > budget:
            return rounds


def time_rounds(rounds: list, meter, exponent: float) -> None:
    """Adds raw and scaled seconds, per operation and per round, to each
    round; the meter must have been left, so that it holds its last pass."""
    for r in rounds:
        r["op_raw_s"] = [t1 - t0 for t0, t1 in r["spans"]]
        r["op_scaled_s"] = [(t1 - t0) * meter.scale(t0, t1) ** exponent
                            for t0, t1 in r["spans"]]
        r["raw_s"], r["scaled_s"] = sum(r["op_raw_s"]), sum(r["op_scaled_s"])


def scaled_round_s(rounds: list) -> float:
    """Sum over the operations of each one's median scaled time."""
    return sum(statistics.median(r["op_scaled_s"][i] for r in rounds)
               for i in range(len(rounds[0]["op_scaled_s"])))


def judge(ops, rounds) -> tuple[int, int, list, list]:
    """(attempted, failed, problems, failures) over all rounds; each
    distinct output of an operation is checked once."""
    attempted = failed = 0
    problems, failures = [], set()
    verdicts = {}
    for r in rounds:
        for i, (op, out) in enumerate(zip(ops, r["outputs"])):
            key = (i, pickle.dumps(out))
            if key not in verdicts:
                if isinstance(out, Raised):
                    verdicts[key] = [(op.name, True, [], out.text)]
                else:
                    # a known fault's wrong output is a failure, not an error
                    verdicts[key] = [
                        (o.label, o.failed or bool(op.known_fault and o.problems),
                         [] if op.known_fault else o.problems, op.known_fault)
                        for o in op.check(out)]
                for label, was_failed, probs, why in verdicts[key]:
                    problems += probs
                    if was_failed:
                        failures.add(f"{label}: {why}")
            for _, was_failed, _, _ in verdicts[key]:
                attempted += 1
                failed += was_failed
    return attempted, failed, problems, sorted(failures)


def layer_metrics(traced: list, untraced: list, import_s: float,
                  load_s: float) -> tuple[dict, list]:
    """Per-layer metrics for one round, and the counters that differed
    between traced rounds (they should not).  Times inside a round are
    scaled by that round's scaled/raw ratio, like the operations."""
    from spans import SEQUENCE_KINDS

    rounds = [r["counters"][0] for r in traced]
    scales = [r["scaled_s"] / r["raw_s"] for r in traced]
    fit_pb_ms = [ms * k for r, k in zip(traced, scales) for ms in r["counters"][1]]
    untraced_s = scaled_round_s(untraced)

    def per_round(key):
        k = [1.0] * len(rounds) if key.endswith(COUNT_SUFFIXES) else scales
        return statistics.median(r.get(key, 0.0) * f for r, f in zip(rounds, k))

    count_keys = {k for r in rounds for k in r
                  if not k.endswith(".busy_s")}
    varying = sorted(k for k in count_keys
                     if len({r.get(k, 0.0) for r in rounds}) > 1)

    m = {
        "import.genbenford_s": import_s,
        "reference.load_survey.busy_s": load_s + per_round("reference.load_survey.busy_s"),
        "cli.self_s": per_round("cli.main.busy_s"),
        "trace.overhead_s": scaled_round_s(traced) - untraced_s,
        "raw_round_s": statistics.median(r["raw_s"] for r in untraced),
        "host.reference_ratio": statistics.median(
            r["raw_s"] / r["scaled_s"] for r in untraced + traced),
    }
    for prefix in ("fitting.fit_pb", "fitting.fit_pb.m100", "fitting.fit_pb.m1000",
                   "fitting.fit_pb.m5000"):
        busy, evals = per_round(prefix + ".busy_s"), per_round(prefix + ".evaluations")
        m[prefix + ".busy_s"] = busy
        m[prefix + ".evaluations"] = int(evals)
        m[prefix + ".us_per_eval"] = 1e6 * busy / evals if evals else 0.0
    m["fitting.fit_tspb.busy_s"] = per_round("fitting.fit_tspb.busy_s")
    m["fitting.fit_tspb.evaluations"] = int(per_round("fitting.fit_tspb.evaluations"))
    m["fitting.goodness_of_fit.busy_s"] = per_round("fitting.goodness_of_fit.busy_s")
    m["pb_fit_p50_ms"] = statistics.median(fit_pb_ms) if fit_pb_ms else 0.0
    m["distributions.pb_vector.calls"] = int(per_round("distributions.pb_vector.calls"))
    for key in ("distributions.pb_vector.small_m.busy_s",
                "distributions.pb_vector.large_m.busy_s",
                "distributions.tspb_vector.busy_s",
                "distributions.adaptive_truncation.busy_s",
                "sampling.verification_report.busy_s",
                "digits.first_digit_int.busy_s",
                "digits.first_digit_real.busy_s",
                "digits.histogram.busy_s"):
        m[key] = per_round(key)
    for key in ("sampling.samples", "digits.first_digit_int.calls",
                "digits.decimal_digits"):
        m[key] = int(per_round(key))
    m["values_per_s"] = per_round("digits.values") / untraced_s
    m["digits_per_s"] = per_round("digits.decimal_digits") / untraced_s
    for kind in SEQUENCE_KINDS:
        m[f"sequences.{kind}.busy_s"] = per_round(f"sequences.{kind}.busy_s")
        m[f"sequences.{kind}.terms"] = int(per_round(f"sequences.{kind}.terms"))
    return m, varying


def main(argv=None) -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--setup-probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--small", action="store_true")
    args = p.parse_args(argv)

    if args.setup_probe:
        before = python_reference_s()
        raw = sum(set_up())
        reference_s = (before + python_reference_s()) / 2
        print(json.dumps({"raw_s": raw, "scaled_s": raw * SETUP_REFERENCE_S / reference_s}))
        return
    import_s, load_s = set_up()

    import workloads
    from calibrate import Speedometer
    from spans import Tracer

    ops = workloads.WORKLOADS[args.workload](args.seed, args.small)
    budget = args.seconds / 2 if args.trace else args.seconds
    meter = Speedometer()
    with meter:
        untraced = run_rounds(ops, budget, meter)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = Tracer(clock=meter.now)
            tracer.install()
            traced = run_rounds(ops, args.seconds - budget, meter, tracer)
    rounds = untraced + traced if args.trace else untraced
    time_rounds(rounds, meter, workloads.HOST_EXPONENT[args.workload])
    report = {"untraced_round_raw_s": [r["raw_s"] for r in untraced],
              "untraced_round_scaled_s": [r["scaled_s"] for r in untraced]}
    if args.trace:
        metrics, varying = layer_metrics(traced, untraced, import_s, load_s)
        report["traced_round_raw_s"] = [r["raw_s"] for r in traced]
        report["traced_round_scaled_s"] = [r["scaled_s"] for r in traced]
        report["counts_varying_between_rounds"] = varying
    else:
        metrics = {"scaled_round_s": scaled_round_s(untraced), "peak_rss_mb": peak_rss_mb}

    attempted, failed, problems, failures = judge(ops, rounds)
    report["op_s"] = {op.name: [statistics.median(r[key][i] for r in untraced)
                                for key in ("op_raw_s", "op_scaled_s")]
                      for i, op in enumerate(ops)}
    report.update(correct=not problems, attempted=attempted, failed=failed,
                  problems=problems[:50], failures=failures, metrics=metrics,
                  import_s=import_s, load_survey_s=load_s)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
