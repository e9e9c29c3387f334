"""Command-line interface.

Subcommands: pmf (evaluate a digit law), fit (fit a digit law to a
histogram), tables (reproduce the bundled survey and its fit statistics),
verify (Monte Carlo check of a digit law against its sampler), seq
(export a generated sequence).

No command names a law: --model picks the law class of that tag, which
fitting.fit fits and whose dataclass fields name the flags of pmf and
verify; --m sets its field m, and a law without one ignores --m.

Every table goes through one printer, _emit: CSV cells through str(), at
a float's full precision, markdown cells as the caller rounded them.  A fit
is printed from its one record, FitResult.to_json_dict().

Exit codes: 0 success, 1 computational or verification failure, 2 usage
error (a missing or invalid flag value).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, fields, replace

from .digits import DigitHistogram, _first_digits, histogram
from .distributions import _LAWS, PB, adaptive_truncation, model_to_dict
from .fitting import fit
from .reference import SurveyRow, load_survey
from .sequences import SequenceSpec, digit_histogram_of, format_values, generate, read_values
from .sampling import _Z_LIMIT, verification_report


class UsageError(Exception):
    pass


def _param_fields():
    """The laws' parameters but m, each once by name: the flags of pmf and verify."""
    return {f.name: f for law in _LAWS.values() for f in fields(law) if f.name != "m"}


def _required(name, value):
    if value is None:
        raise UsageError(f"--{name} is required for this model")
    return value


def _law(law, **params):
    """law(**params) under the law's own check, whose ValueError begins with
    the name of the rejected field: the flag of that name set it."""
    try:
        return law(**params)
    except ValueError as e:
        raise UsageError(f"--{e}") from None


def _m_flag(text):
    """--m checked, once per command whatever the law: 'adaptive', 'survey',
    or an integer that PB accepts as its truncation."""
    if text in ("adaptive", "survey"):
        return text
    try:
        m = int(text)
    except ValueError:
        raise UsageError(f"--m must be an integer, 'adaptive' or 'survey', "
                         f"got {text!r}") from None
    return _law(PB, alpha=1.0, beta=1.0, m=m).m


def _resolve_m(law, mflag, survey_m=None):
    """A checked --m as the law takes it: 'survey' is the bundled value for a
    surveyed sequence, 'adaptive' stays; a law without m ignores --m."""
    if "m" not in {f.name for f in fields(law)}:
        return mflag
    if mflag == "survey" and survey_m is None:
        raise UsageError("--m survey only applies when fitting a surveyed sequence via --seq")
    return survey_m if mflag == "survey" else mflag


def _build_model(args):
    law = _LAWS[args.model]
    own = {f.name for f in fields(law)}
    for name in _param_fields():
        if name not in own and getattr(args, name) is not None:
            raise UsageError(f"--{name} does not apply to --model {args.model}")
    model = _law(law, **{f.name: _required(f.name, getattr(args, f.name))
                         for f in fields(law) if f.name != "m"})
    mflag = _resolve_m(law, _m_flag(args.m))  # after the law's own fields, as PB checks m last
    if "m" in own:  # a truncated law
        model = replace(model, m=adaptive_truncation(model.alpha, model.beta)
                        if mflag == "adaptive" else mflag)
    return model


def _sequence_spec(kind, param) -> SequenceSpec:
    try:
        return SequenceSpec(kind=kind, param=param)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _emit(header, rows, fmt):
    """Print one table, CSV or markdown, each cell through str()."""
    if fmt == "csv":
        for row in [header, *rows]:
            print(",".join(map(str, row)))
    else:
        for row in [header, ["---"] * len(header), *rows]:
            print("| " + " | ".join(map(str, row)) + " |")


# ---------------------------------------------------------------------------
# pmf


def cmd_pmf(args) -> int:
    model = _build_model(args)
    probs = model.pmf().tolist()
    deficit = model.deficit()
    if args.format == "json":
        obj = {"model": model_to_dict(model), "probabilities": probs}
        if deficit is not None:
            obj["truncation_deficit"] = deficit
        print(json.dumps(obj))
        return 0
    rows = list(enumerate(probs, start=1))
    if args.format == "markdown":
        _emit(["digit", "probability"], [(d, f"{p:.5f}") for d, p in rows], "markdown")
        if deficit is not None:
            print(f"\ntruncation deficit: {deficit:.6e}")
    else:
        if deficit is not None:
            rows.append(("deficit", deficit))
        _emit(["digit", "probability"], rows, "csv")
    return 0


# ---------------------------------------------------------------------------
# fit


def _histogram_from_args(args) -> tuple[DigitHistogram, str, int | None]:
    """Returns (histogram, label, survey_m) for the requested source."""
    if args.counts is not None:
        try:
            return DigitHistogram.from_csv(args.counts), "counts", None
        except ValueError as e:  # a wrong field count, a non-integer or a negative count
            raise UsageError(f"--counts: {e}") from None
    if args.file is not None:
        return histogram(_first_digits(read_values(args.file))), str(args.file), None
    kind, param_text = args.seq
    try:
        param = int(param_text)
    except ValueError:
        raise UsageError(f"sequence parameter must be an integer, got "
                         f"{param_text!r}") from None
    spec = _sequence_spec(kind, param)
    key = (spec.kind, spec.param)
    survey_m = {(r.kind, r.param): r.series_m for r in load_survey()}.get(key)
    return digit_histogram_of(spec), f"{spec.kind}({spec.param})", survey_m


def cmd_fit(args) -> int:
    hist, label, survey_m = _histogram_from_args(args)
    if hist.sample_size < 1:
        flag = next(f for f in ("counts", "file", "seq") if getattr(args, f) is not None)
        raise UsageError(f"histogram is empty: --{flag} gives no values")
    law = _LAWS[args.model]
    rec = fit(hist, law, _resolve_m(law, _m_flag(args.m), survey_m)).to_json_dict()
    if args.format == "json":
        print(json.dumps({**rec, "source": label}))
        return 0
    params = rec.pop("model")
    kind = params.pop("model")
    if args.format == "csv":  # the parameters in one cell; no search counters
        del rec["converged"], rec["evaluations"]
        params = ";".join(f"{k}={v}" for k, v in params.items())
        _emit(["sequence", "model", "params", *rec],
              [[label, kind, params, *rec.values()]], "csv")
        return 0
    rec["p_value"] = f"{100 * rec['p_value']:.2f}%"
    for k, v in {"source": label, "model": kind, **params, **rec}.items():
        print(f"{k}: {v:.6g}" if isinstance(v, float) else f"{k}: {v}")
    return 0


# ---------------------------------------------------------------------------
# tables


def cmd_tables(args) -> int:
    rows = load_survey()
    if args.rows is not None:
        wanted = {k.strip() for k in args.rows.split(",")}
        unknown = wanted - {r.key for r in rows}
        if unknown:
            named = (k or "''" for k in sorted(unknown))
            raise UsageError(f"unknown survey keys: {', '.join(named)}")
        rows = [r for r in rows if r.key in wanted]
    args.m = _m_flag(args.m)  # a bad --m is a usage error, not a failure per row
    hist = functools.cache(SurveyRow.histogram)  # each row's, built once for both tables
    failed = False
    if args.table in ("digits", "both"):
        header = ["sequence", "n", "source"] + [f"pct{d}" for d in range(1, 10)]
        failed |= _survey_table(rows, header, lambda row: _digit_cells(hist(row)), args)
    if args.table in ("fits", "both"):
        if args.table == "both":
            print()
        header = ["sequence", "n", "source"] + [
            f"{tag}_{name}" for tag, law in _LAWS.items()
            for name in [f.name for f in fields(law)] + ["chi2", "p"]]
        failed |= _survey_table(rows, header,
                                lambda row: _fit_cells(hist(row), row.series_m, args.m), args)
    return 1 if failed else 0


def _survey_table(rows, header, cells, args) -> bool:
    """Print one line per survey row: its label, n and source, then
    cells(row), or the error that raised.  Returns whether any row
    failed."""
    out_rows = []
    failed = False
    for row in rows:
        try:
            tail = cells(row)
        except Exception as e:
            failed = True
            tail = [f"error: {e}"] + [""] * (len(header) - 4)
        out_rows.append([row.label, row.n, row.source] + tail)
    if args.format == "markdown":
        out_rows = [[_rounded(name, c) for name, c in zip(header, r)] for r in out_rows]
    _emit(header, out_rows, args.format)
    return failed


def _rounded(name, cell):
    """A survey-table cell as markdown shows it: a chi-square to 3
    decimals, a p-value in percent to 2, another real to 5."""
    if not isinstance(cell, float):
        return cell
    return (f"{100 * cell:.2f}" if name.endswith("_p") else
            f"{cell:.3f}" if name.endswith("_chi2") else f"{cell:.5f}")


def _digit_cells(hist) -> list:
    return [f"{p:.1f}" for p in hist.percentages()]


def _fit_cells(hist, series_m, m) -> list:
    """Each law's parameters, chi-square and p-value."""
    cells = []
    for law in _LAWS.values():
        r = fit(hist, law, _resolve_m(law, m, series_m))
        cells += [*asdict(r.model).values(), r.chi_square, r.p_value]
    return cells


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.n < 1000:
        raise UsageError(f"--n must be >= 1000, got {args.n}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    model = _build_model(args)
    report = verification_report(model, args.n, args.seed)
    header = ["digit", "expected_probability", "observed_frequency", "z_score"]
    rows = list(zip(range(1, 10), report.expected, report.observed, report.z_scores))
    if args.format == "csv":
        _emit(header, rows, "csv")
    else:
        _emit(header, [(d, f"{e:.6f}", f"{o:.6f}", f"{z:+.3f}") for d, e, o, z in rows],
              "markdown")
        print(f"\nchi_square: {report.chi_square:.4f}")
        print(f"max |z|: {report.max_abs_z:.3f}")
    ok = report.passed()
    print(f"verdict: {'pass' if ok else 'FAIL'} (threshold: all |z| < {_Z_LIMIT:g})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# seq


def cmd_seq(args) -> int:
    spec = _sequence_spec(args.kind, args.param)
    text = format_values(generate(spec))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_model_flags(p, params: bool):
    p.add_argument("--model", required=True, choices=list(_LAWS))
    for name, f in _param_fields().items() if params else ():
        p.add_argument(f"--{name}", type=float, help=f.metadata["help"])
    p.add_argument("--m", default=str(PB.m),
                   help="PB series truncation: an integer, 'adaptive', or "
                        "'survey' (pin to the surveyed value)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genbenford",
        description="Benford's law and its power-law generalizations",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="print a digit law's probabilities", allow_abbrev=False)
    _add_model_flags(p, params=True)
    p.add_argument("--format", choices=["csv", "json", "markdown"], default="csv")
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("fit", help="fit a digit law to a histogram", allow_abbrev=False)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--seq", nargs=2, metavar=("KIND", "PARAM"),
                     help="generate a sequence, e.g. --seq squares 100")
    src.add_argument("--counts", help="9 comma-separated digit counts")
    src.add_argument("--file", help="file of values, one per line")
    _add_model_flags(p, params=False)
    p.add_argument("--format", choices=["csv", "json", "markdown"],
                   default="markdown")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("tables", help="reproduce the bundled survey tables", allow_abbrev=False)
    p.add_argument("--table", choices=["digits", "fits", "both"], default="both")
    p.add_argument("--rows", help="comma-separated survey keys to restrict to")
    p.add_argument("--m", default="survey",
                   help="PB truncation for the fits table (integer, "
                        "'adaptive' or 'survey')")
    p.add_argument("--format", choices=["csv", "markdown"], default="markdown")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="Monte Carlo check of a digit law", allow_abbrev=False)
    _add_model_flags(p, params=True)
    p.set_defaults(m="adaptive")
    p.add_argument("--n", type=int, default=1_000_000,
                   help="number of samples (>= 1000)")
    p.add_argument("--seed", type=int, default=20240811)
    p.add_argument("--format", choices=["csv", "markdown"], default="markdown")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("seq", help="export a generated sequence", allow_abbrev=False)
    p.add_argument("--kind", required=True)
    p.add_argument("--param", type=int, default=0)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_seq)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse's own exit: --help or a usage error
        return int(e.code) if e.code else 0
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
