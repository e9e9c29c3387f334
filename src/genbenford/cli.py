"""Command-line interface.

Subcommands: pmf (evaluate a digit law), fit (fit a digit law to a
histogram), tables (reproduce the bundled survey and its fit statistics),
verify (Monte Carlo check of a digit law against its sampler), seq
(export a generated sequence).

Exit codes: 0 success, 1 computational or verification failure, 2 usage
error (a missing or invalid flag value).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .digits import DigitHistogram
from .distributions import (
    _LAWS,
    _M_LIMIT,
    PB,
    Benford,
    adaptive_truncation,
    model_to_dict,
    pb_truncation_deficit,
    pmf_vector,
)
from .fitting import FitResult, chi_square_stat, fit_pb, fit_tspb, goodness_of_fit
from .reference import load_survey, reconstructed_histogram
from .sequences import (
    SEQUENCE_KINDS,
    SequenceSpec,
    digit_histogram_of,
    format_values,
    generate,
)
from .sampling import verification_report


class UsageError(Exception):
    pass


def _positive_float(name, value):
    if value is None:
        raise UsageError(f"--{name} is required for this model")
    v = float(value)
    if not (math.isfinite(v) and v > 0):
        raise UsageError(f"--{name} must be a finite real > 0, got {value}")
    return v


def _resolve_m(mflag, survey_m=None):
    """--m given as an integer or 'survey' (the bundled value for the
    sequence); callers resolve 'adaptive' first, since it needs a law."""
    if mflag == "survey":
        if survey_m is None:
            raise UsageError("--m survey only applies when fitting a surveyed "
                             "sequence via --seq")
        return survey_m
    try:
        m = int(mflag)
    except (TypeError, ValueError):
        raise UsageError(f"--m must be an integer, 'adaptive' or 'survey', "
                         f"got {mflag!r}") from None
    if not 1 <= m < _M_LIMIT:
        raise UsageError(f"--m must be in [1, 2**1024), got {mflag}")
    return m


def _build_model(args):
    law = _LAWS[args.model]
    params = {f.name: _positive_float(f.name, getattr(args, f.name))
              for f in fields(law) if f.name != "m"}
    if law is PB:
        params["m"] = (adaptive_truncation(params["alpha"], params["beta"])
                       if args.m == "adaptive" else _resolve_m(args.m))
    return law(**params)


def _fit_pb(hist, mflag, survey_m=None) -> FitResult:
    """fit_pb at the truncation --m names.  'adaptive' takes the adaptive
    truncation of a pilot fit at m = 1000 and refits only above 1000."""
    if mflag != "adaptive":
        return fit_pb(hist, m=_resolve_m(mflag, survey_m))
    pilot = fit_pb(hist, m=1000)
    m = adaptive_truncation(pilot.model.alpha, pilot.model.beta)
    return fit_pb(hist, m=m) if m > 1000 else pilot


def _sequence_spec(kind, param) -> SequenceSpec:
    try:
        return SequenceSpec(kind=kind, param=param)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _parse_counts(text) -> DigitHistogram:
    fields = [f.strip() for f in text.split(",")]
    if len(fields) != 9:
        raise UsageError(f"--counts needs 9 comma-separated integers, got "
                         f"{len(fields)}")
    try:
        counts = [int(f) for f in fields]
    except ValueError:
        raise UsageError(f"--counts must be integers: {text!r}") from None
    if any(c < 0 for c in counts):
        raise UsageError("--counts must be non-negative")
    if sum(counts) < 1:
        raise UsageError("--counts must total at least 1 observation")
    return DigitHistogram.from_counts(counts)


def _markdown_table(header, rows):
    out = ["| " + " | ".join(header) + " |",
           "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# pmf


def cmd_pmf(args) -> int:
    model = _build_model(args)
    probs = pmf_vector(model)
    deficit = None
    if isinstance(model, PB):
        deficit = pb_truncation_deficit(model.alpha, model.beta, model.m)

    if args.format == "json":
        obj = {"model": model_to_dict(model),
               "probabilities": [float(p) for p in probs]}
        if deficit is not None:
            obj["truncation_deficit"] = deficit
        print(json.dumps(obj))
    elif args.format == "markdown":
        rows = [(d, f"{p:.5f}") for d, p in enumerate(probs, start=1)]
        print(_markdown_table(["digit", "probability"], rows))
        if deficit is not None:
            print(f"\ntruncation deficit: {deficit:.6e}")
    else:
        print("digit,probability")
        for d, p in enumerate(probs, start=1):
            print(f"{d},{float(p)!r}")
        if deficit is not None:
            print(f"deficit,{deficit!r}")
    return 0


# ---------------------------------------------------------------------------
# fit


def _histogram_from_args(args) -> tuple[DigitHistogram, str, int | None]:
    """Returns (histogram, label, survey_m) for the requested source."""
    if args.counts is not None:
        return _parse_counts(args.counts), "counts", None
    if args.file is not None:
        spec = SequenceSpec("custom_file", path=args.file)
        return digit_histogram_of(spec), str(args.file), None
    kind, param_text = args.seq
    if kind not in SEQUENCE_KINDS:
        raise UsageError(f"unknown sequence kind {kind!r}; choose from "
                         f"{', '.join(SEQUENCE_KINDS)}")
    try:
        param = int(param_text)
    except ValueError:
        raise UsageError(f"sequence parameter must be an integer, got "
                         f"{param_text!r}") from None
    survey_m = None
    for row in load_survey():
        if row.kind == kind and row.param == param:
            survey_m = row.series_m
            break
    spec = _sequence_spec(kind, param)
    try:
        hist = digit_histogram_of(spec)
    except Exception as e:
        raise RuntimeError(f"generating {kind}({param}) failed: {e}") from e
    return hist, f"{kind}({param})", survey_m


def _render_fit(result: FitResult, label: str, fmt: str) -> str:
    if fmt == "json":
        obj = result.to_json_dict()
        obj["source"] = label
        return json.dumps(obj)
    if fmt == "csv":
        header = "sequence,model,params,chi_square,df,p_value"
        return header + "\n" + result.to_csv_row(label)
    lines = [f"source: {label}"]
    m = model_to_dict(result.model)
    lines.append(f"model: {m.pop('model')}")
    for k, v in m.items():
        lines.append(f"{k}: {v:.6g}" if isinstance(v, float) else f"{k}: {v}")
    lines.append(f"chi_square: {result.chi_square:.6g}")
    lines.append(f"df: {result.df}")
    lines.append(f"p_value: {100.0 * result.p_value:.2f}%")
    lines.append(f"converged: {result.converged}")
    lines.append(f"evaluations: {result.evaluations}")
    return "\n".join(lines)


def cmd_fit(args) -> int:
    hist, label, survey_m = _histogram_from_args(args)
    if hist.sample_size < 1:
        raise UsageError("histogram is empty")
    if args.model == "benford":
        chi2 = chi_square_stat(hist, pmf_vector(Benford()))
        result = FitResult._of(Benford(), chi2, converged=True, evaluations=1)
    elif args.model == "tspb":
        result = fit_tspb(hist)
    else:
        result = _fit_pb(hist, args.m, survey_m)
    print(_render_fit(result, label, args.format))
    return 0


# ---------------------------------------------------------------------------
# tables


def _row_histogram(row) -> DigitHistogram:
    if row.source == "generated":
        return digit_histogram_of(row.spec())
    return reconstructed_histogram(row)


def cmd_tables(args) -> int:
    rows = load_survey()
    if args.rows:
        wanted = {k.strip() for k in args.rows.split(",")}
        unknown = wanted - {r.key for r in rows}
        if unknown:
            raise UsageError(f"unknown survey keys: {', '.join(sorted(unknown))}")
        rows = [r for r in rows if r.key in wanted]
    if args.m not in ("adaptive", "survey"):
        _resolve_m(args.m)  # a bad --m is a usage error, not a failure per row
    failed = False

    if args.table in ("digits", "both"):
        header = ["sequence", "n", "source"] + [f"pct{d}" for d in range(1, 10)]
        out_rows = []
        for row in rows:
            try:
                hist = _row_histogram(row)
                pcts = [f"{p:.1f}" for p in hist.percentages()]
                out_rows.append([row.label, row.n, row.source] + pcts)
            except Exception as e:
                failed = True
                out_rows.append([row.label, row.n, row.source, f"error: {e}"]
                                + [""] * 8)
        _emit_table(header, out_rows, args.format)

    if args.table in ("fits", "both"):
        if args.table == "both":
            print()
        header = ["sequence", "n", "source",
                  "benford_chi2", "benford_p",
                  "tspb_c", "tspb_chi2", "tspb_p",
                  "pb_alpha", "pb_beta", "pb_m", "pb_chi2", "pb_p"]
        out_rows = []
        for row in rows:
            try:
                out_rows.append(_fit_row(row, args))
            except Exception as e:
                failed = True
                out_rows.append([row.label, row.n, row.source, f"error: {e}"]
                                + [""] * 9)
        _emit_table(header, out_rows, args.format)

    return 1 if failed else 0


def _fit_row(row, args) -> list:
    hist = _row_histogram(row)
    b_chi2, _, b_p = goodness_of_fit(hist, Benford(), 0)
    t = fit_tspb(hist)
    p = _fit_pb(hist, args.m, row.series_m)
    if args.format == "csv":
        return [row.label, row.n, row.source,
                repr(b_chi2), repr(b_p),
                repr(t.model.c), repr(t.chi_square), repr(t.p_value),
                repr(p.model.alpha), repr(p.model.beta), p.model.m,
                repr(p.chi_square), repr(p.p_value)]
    return [row.label, row.n, row.source,
            f"{b_chi2:.3f}", f"{100 * b_p:.2f}",
            f"{t.model.c:.5f}", f"{t.chi_square:.3f}", f"{100 * t.p_value:.2f}",
            f"{p.model.alpha:.5f}", f"{p.model.beta:.5f}", p.model.m,
            f"{p.chi_square:.3f}", f"{100 * p.p_value:.2f}"]


def _emit_table(header, rows, fmt):
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(c) for c in row))
    else:
        print(_markdown_table(header, rows))


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.n < 1000:
        raise UsageError(f"--n must be >= 1000, got {args.n}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    model = _build_model(args)
    report = verification_report(model, args.n, args.seed)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        rows = [(d + 1, f"{report.expected[d]:.6f}", f"{report.observed[d]:.6f}",
                 f"{report.z_scores[d]:+.3f}")
                for d in range(9)]
        print(_markdown_table(
            ["digit", "expected_probability", "observed_frequency", "z_score"],
            rows))
        print(f"\nchi_square: {report.chi_square:.4f}")
        print(f"max |z|: {report.max_abs_z:.3f}")
    ok = report.passed(z_limit=4.0)
    print(f"verdict: {'pass' if ok else 'FAIL'} (threshold: all |z| < 4)")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# seq


def cmd_seq(args) -> int:
    if args.kind not in SEQUENCE_KINDS or args.kind == "custom_file":
        raise UsageError(f"cannot export sequence kind {args.kind!r}")
    if args.kind != "idoneal" and args.param is None:
        raise UsageError("--param is required for this sequence kind")
    spec = _sequence_spec(args.kind, args.param or 0)
    text = format_values(generate(spec))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_model_flags(p):
    p.add_argument("--model", required=True, choices=list(_LAWS))
    p.add_argument("--c", type=float, help="TSPB shape parameter")
    p.add_argument("--alpha", type=float, help="PB tail exponent")
    p.add_argument("--beta", type=float, help="PB lower exponent")
    p.add_argument("--m", default="1000",
                   help="PB series truncation: an integer, 'adaptive', or "
                        "'survey' (pin to the surveyed value)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genbenford",
        description="Benford's law and its power-law generalizations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="print a digit law's probabilities")
    _add_model_flags(p)
    p.add_argument("--format", choices=["csv", "json", "markdown"], default="csv")
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("fit", help="fit a digit law to a histogram")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--seq", nargs=2, metavar=("KIND", "PARAM"),
                     help="generate a sequence, e.g. --seq squares 100")
    src.add_argument("--counts", help="9 comma-separated digit counts")
    src.add_argument("--file", help="file of values, one per line")
    _add_model_flags(p)
    p.add_argument("--format", choices=["csv", "json", "markdown"],
                   default="markdown")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("tables", help="reproduce the bundled survey tables")
    p.add_argument("--table", choices=["digits", "fits", "both"], default="both")
    p.add_argument("--rows", help="comma-separated survey keys to restrict to")
    p.add_argument("--m", default="survey",
                   help="PB truncation for the fits table (integer, "
                        "'adaptive' or 'survey')")
    p.add_argument("--format", choices=["csv", "markdown"], default="markdown")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="Monte Carlo check of a digit law")
    _add_model_flags(p)
    p.set_defaults(m="adaptive")
    p.add_argument("--n", type=int, default=1_000_000,
                   help="number of samples (>= 1000)")
    p.add_argument("--seed", type=int, default=20240811)
    p.add_argument("--format", choices=["csv", "markdown"], default="markdown")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("seq", help="export a generated sequence")
    p.add_argument("--kind", required=True)
    p.add_argument("--param", type=int)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_seq)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"failure: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
