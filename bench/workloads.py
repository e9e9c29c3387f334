"""The four workloads: their inputs, operations and output checks.

A workload is a list of operations.  A round runs every operation once, in
order; a run repeats whole rounds, so every run attempts the same
operations and fails the same share of them.  Inputs come from the seed
only; the expected outputs come from `oracles`, never from genbenford.

Each operation's `check` turns its output into outcomes: a label, whether
it failed, and what is wrong with it.  An operation fails when it raises,
or when it is one of the known faults below and its output is wrong.  Any
other wrong output makes the run incorrect.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import genbenford as gb
import oracles as orc
from genbenford import cli

SURVEY_CSV = Path(__file__).resolve().parents[1] / "src" / "genbenford" / "data" / "digit_survey.csv"

# Published per-row statistics of the paper's survey: (benford chi2,
# benford p%, tspb chi2, tspb p%, pb chi2, pb p%).
PUBLISHED = {
    "square": (9.096, 33.43, 7.837, 34.72, 0.362, 99.91),
    "cube-500": (9.696, 28.70, 5.808, 56.23, 0.286, 99.96),
    "cube-1000": (46.459, 0.00, 43.725, 0.00, 0.480, 99.81),
    "cube-10000": (443.745, 0.00, 472.011, 0.00, 3.138, 79.13),
    "square-root": (8.612, 37.61, 7.002, 42.86, 2.778, 83.61),
    "prime-100": (7.741, 45.91, 7.299, 39.84, 1.849, 93.30),
    "prime-1000": (45.016, 0.00, 36.651, 0.00, 0.333, 99.93),
    "prime-10000": (387.194, 0.00, 307.322, 0.00, 3.297, 77.07),
    "princeton": (3.452, 90.29, 2.762, 89.72, 1.302, 97.16),
    "mixing": (15.550, 4.93, 9.014, 25.17, 1.819, 93.55),
    "pentagonal": (5.277, 72.76, 2.127, 95.24, 1.968, 92.26),
    "keith": (9.215, 32.45, 7.688, 36.09, 7.402, 28.53),
    "bell": (3.069, 93.00, 3.014, 88.37, 2.607, 85.63),
    "catalan": (2.404, 96.61, 2.304, 94.11, 1.934, 92.57),
    "lucky": (7.693, 46.40, 5.165, 63.98, 5.564, 47.37),
    "ulam": (6.350, 60.81, 2.520, 92.56, 2.526, 86.56),
    "idoneal": (2.594, 95.72, 2.522, 92.54, 2.584, 85.89),
    "fibonacci": (1.029, 99.81, 1.021, 99.45, 1.027, 98.46),
    "partition": (1.394, 99.43, 1.132, 99.24, 1.513, 95.86),
}
# The published bell row rests on wrong source data (the true Bell numbers
# fit worse), so its PB cell is not a bound the program can meet.
PUBLISHED_PB_EXEMPT = {"bell"}
# tolerances of the acceptance suite for the published PB column
PUBLISHED_CHI2_SLACK = 0.05
PUBLISHED_P_SLACK_PCT = 0.3

FIT_M = 100  # the paper's default PB truncation


@dataclass
class Outcome:
    label: str
    failed: bool = False
    problems: list = field(default_factory=list)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]  # output -> [Outcome]
    known_fault: str = ""            # a wrong output counts as failed, not incorrect


def single(op_name: str, problems: list) -> list:
    return [Outcome(op_name, problems=problems)]


def close(got: float, want: float, rel: float, absolute: float = 0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + absolute


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# ---------------------------------------------------------------------------
# survey: `genbenford tables` over the bundled survey, through cli.main


def _survey_rows(keys=None) -> list[dict]:
    with open(SURVEY_CSV, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return [r for r in rows if keys is None or r["key"] in keys]


def _own_counts(row: dict) -> list[int]:
    pct = [float(row[f"pct{d}"]) for d in range(1, 10)]
    if row["source"] != "generated":
        return orc.largest_remainder(pct, int(row["n"]))
    return sequence_counts(row["kind"], int(row["param"]))


def _check_survey_row(row: dict, digits_line: list, fits_line: list) -> Outcome:
    key = row["key"]
    out = Outcome("survey/" + key)
    if any(cell.startswith("error") for cell in digits_line + fits_line):
        out.failed = True
        return out
    p = out.problems
    counts = _own_counts(row)
    n = int(row["n"])
    if sum(counts) != n:
        p.append(f"own counts sum to {sum(counts)}, not {n}")
    want_pct = [f"{100.0 * (c / n):.1f}" for c in counts]
    if digits_line[3:12] != want_pct:
        p.append(f"digit percentages {digits_line[3:12]} != {want_pct}")
    (b_chi2, b_p, c, t_chi2, t_p, alpha, beta) = map(float, fits_line[3:10])
    m = int(fits_line[10])
    pb_chi2, pb_p = float(fits_line[11]), float(fits_line[12])

    own_b = orc.chi_square(counts, orc.benford())
    if not close(b_chi2, own_b, 1e-9):
        p.append(f"benford chi2 {b_chi2!r} != own {own_b!r}")
    _, grid_min = orc.tspb_grid_min(counts)
    if not close(t_chi2, grid_min, 1e-6, 1e-6):
        p.append(f"tspb minimum {t_chi2!r} != dense-grid minimum {grid_min!r}")
    own_t = orc.chi_square(counts, orc.tspb(c))
    if not close(t_chi2, own_t, 1e-9):
        p.append(f"tspb chi2 {t_chi2!r} != own {own_t!r} at c={c!r}")
    if m != int(row["series_m"]):
        p.append(f"pb m {m} != survey truncation {row['series_m']}")
    own_pb = orc.chi_square(counts, orc.pb(alpha, beta, m))
    if not close(pb_chi2, own_pb, 1e-7):
        p.append(f"pb chi2 {pb_chi2!r} != own {own_pb!r} at ({alpha!r}, {beta!r}, {m})")
    for chi2, pv, df in ((b_chi2, b_p, 8), (t_chi2, t_p, 7), (pb_chi2, pb_p, 6)):
        want = orc.chi_square_sf(chi2, df)
        if not close(pv, want, 1e-9, 1e-300):
            p.append(f"p-value {pv!r} != own tail {want!r} at chi2={chi2!r}, df={df}")
    if key not in PUBLISHED_PB_EXEMPT:
        ref_chi2, ref_p = PUBLISHED[key][4:6]
        if pb_chi2 > ref_chi2 + PUBLISHED_CHI2_SLACK:
            p.append(f"pb chi2 {pb_chi2:.4f} worse than published {ref_chi2}")
        elif abs(pb_chi2 - ref_chi2) <= PUBLISHED_CHI2_SLACK and \
                abs(100.0 * pb_p - ref_p) > PUBLISHED_P_SLACK_PCT:
            p.append(f"pb p {100 * pb_p:.2f}% vs published {ref_p}%")
    return out


def survey(seed: int, small: bool) -> list[Op]:
    """One `tables` call per survey row, so that each row is timed (and
    scaled to the host's speed) on its own."""
    keys = ("square", "mixing", "keith") if small else None
    ops = []
    for row in _survey_rows(keys):
        argv = ["tables", "--format", "csv", "--rows", row["key"]]

        def run(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue()

        def check(output, row=row):
            rc, text = output
            tables = [list(csv.reader(io.StringIO(b))) for b in text.strip().split("\n\n")]
            if rc != 0 or len(tables) != 2 or any(len(t) != 2 for t in tables):
                return [Outcome("survey/" + row["key"], failed=True)]
            return [_check_survey_row(row, tables[0][1], tables[1][1])]

        ops.append(Op("survey/" + row["key"], run, check))
    return ops


# ---------------------------------------------------------------------------
# fits: the three fitters at m = 100 on seeded synthetic histograms

# (shape, generating law, sample sizes); "empty" histograms get their two
# smallest cells emptied into digit 1
FIT_SHAPES = [
    ("near_benford", gb.PB(1e9, 1.0, FIT_M), (1000, 1_000_000)),
    ("skewed", gb.PB(2.0, 8.0, FIT_M), (100, 100_000)),
    ("flat", gb.PB(55.0, 2.2, FIT_M), (10_000, 1_000_000)),
    ("tspb", gb.TSPB(6.0), (1000,)),
    ("empty", gb.TSPB(8.0), (25,)),
    ("empty", gb.PB(2.0, 8.0, FIT_M), (40,)),
]


def _law_probs(law) -> np.ndarray:
    if isinstance(law, gb.TSPB):
        return orc.tspb(law.c)
    return orc.pb(law.alpha, law.beta, law.m)


def _fit_checks(counts, law, kind: str, result) -> list:
    p = []
    if kind == "benford":
        chi2, df, pv = result
        own = orc.chi_square(counts, orc.benford())
        if not close(chi2, own, 1e-9) or df != 8:
            p.append(f"benford chi2 {chi2!r}/df {df} != own {own!r}/8")
    else:
        model, chi2, df, pv = result.model, result.chi_square, result.df, result.p_value
        if kind == "tspb":
            own = orc.chi_square(counts, orc.tspb(model.c))
            bounds = [("c = 1", orc.chi_square(counts, orc.tspb(1.0)))]
            if isinstance(law, gb.TSPB):
                bounds.append(("generating c", orc.chi_square(counts, orc.tspb(law.c))))
            want_df = 7
        else:
            own = orc.chi_square(counts, orc.pb(model.alpha, model.beta, model.m))
            bounds = []
            if isinstance(law, gb.PB):
                bounds.append(("generating (alpha, beta)",
                               orc.chi_square(counts, _law_probs(law))))
            want_df = 6
            if model.m != FIT_M:
                p.append(f"pb fitted at m={model.m}, not {FIT_M}")
        if not close(chi2, own, 1e-7) or df != want_df:
            p.append(f"{kind} chi2 {chi2!r}/df {df} != own {own!r}/{want_df} at {model}")
        for what, bound in bounds:
            if chi2 > bound * (1 + 1e-9) + 1e-9:
                p.append(f"{kind} minimum {chi2!r} worse than {bound!r} at {what}")
    want_p = orc.chi_square_sf(chi2, df)
    if not close(pv, want_p, 1e-9, 1e-300):
        p.append(f"{kind} p-value {pv!r} != own tail {want_p!r}")
    return p


def fit_histograms(seed: int, small: bool) -> list:
    """[(label, generating law, counts)] drawn from the seed."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for shape, law, sizes in FIT_SHAPES:
        for n in sizes:
            if small:
                n = min(n, 1000)
            probs = _law_probs(law)
            counts = rng.multinomial(n, probs / probs.sum())
            if shape == "empty":
                for i in np.argsort(counts, kind="stable")[:2]:
                    if i != 0:
                        counts[0] += counts[i]
                        counts[i] = 0
            out.append((f"{shape}-n{n}", law, [int(c) for c in counts]))
    if small:
        out = out[::3]
    return out


def fits(seed: int, small: bool) -> list[Op]:
    ops = []
    for label, law, counts in fit_histograms(seed, small):
        hist = gb.DigitHistogram.from_counts(counts)
        runs = {
            "benford": lambda h=hist: gb.goodness_of_fit(h, gb.Benford(), 0),
            "tspb": lambda h=hist: gb.fit_tspb(h),
            "pb": lambda h=hist: gb.fit_pb(h, m=FIT_M),
        }
        for kind, run in runs.items():
            name = f"fits/{label}/{kind}"
            check = (lambda out, name=name, counts=counts, law=law, kind=kind:
                     single(name, _fit_checks(counts, law, kind, out)))
            ops.append(Op(name, run, check))
    return ops


# ---------------------------------------------------------------------------
# laws: the digit laws, adaptive truncation and Monte Carlo verification

PB_SUM_TOL = 1e-12    # |sum + deficit - 1|
PB_ORACLE_TOL = 1e-9  # per digit, against the extended-precision oracle
TSPB_TOL = 1e-14
LAW_M = (1, 10, 100, 1000, 10 ** 6)
PB_FAULT = ("PB(0.05, 1, m) for m > 2^53 drops the truncation: m + 1 + log10 d "
            "is formed in float64 (distributions.py:191/194)")
FAULT_M = (10 ** 16, 10 ** 18)
ADAPTIVE_TOL = 1e-10
TRUNCATION_LIMIT = 10 ** 18
VERIFY_N = 1_000_000
VERIFY_PB_ALPHA = 3.0
Z_LIMIT = 6.0


def law_alphas(rng, small: bool) -> list[float]:
    inner = [log_uniform(rng, 0.05, 1e9) for _ in range(2 if small else 6)]
    return [0.05, 1.0, 1e9] + inner


def _check_pb(probs, alpha, beta, m) -> list:
    p = []
    total = math.fsum(probs) + orc.pb_deficit_exact(alpha, beta, m)
    if abs(total - 1.0) > PB_SUM_TOL:
        p.append(f"PB({alpha!r}, {beta!r}, {m}): sum + deficit - 1 = {total - 1:.3e}")
    err = float(np.abs(np.asarray(probs) - orc.pb_exact(alpha, beta, m)).max())
    if not err <= PB_ORACLE_TOL:
        p.append(f"PB({alpha!r}, {beta!r}, {m}): off the mpmath oracle by {err:.3e}")
    return p


def _check_tspb(probs, c) -> list:
    p = []
    err = float(np.abs(np.asarray(probs) - orc.tspb(c)).max())
    if err > TSPB_TOL or abs(math.fsum(probs) - 1.0) > PB_SUM_TOL:
        p.append(f"TSPB({c!r}) off the formula by {err:.3e} or not normalized")
    if c in (1.0, 2.0) and np.abs(np.asarray(probs) - orc.benford()).max() > TSPB_TOL:
        p.append(f"TSPB({c!r}) != Benford")
    return p


def _adaptive_m(alpha: float, beta: float) -> int | None:
    """Smallest m with deficit < ADAPTIVE_TOL, or None beyond the limit."""
    log10_bound = (math.log10(beta / (alpha + beta)) - math.log10(ADAPTIVE_TOL)) / alpha
    if log10_bound >= math.log10(TRUNCATION_LIMIT):
        return None
    m = max(1, math.ceil(10 ** log10_bound) - 2)
    while orc.pb_deficit_exact(alpha, beta, m) >= ADAPTIVE_TOL:
        m += 1
    return m


def _check_adaptive(output, alpha, beta) -> list:
    want = _adaptive_m(alpha, beta)
    if isinstance(output, ValueError):
        return [] if want is None else [f"adaptive({alpha!r}, {beta!r}) raised, want m={want}"]
    if want is None:
        return [f"adaptive({alpha!r}, {beta!r}) = {output}, want a refusal"]
    ok = orc.pb_deficit_exact(alpha, beta, output) < ADAPTIVE_TOL * (1 + 1e-9) and (
        output == 1 or orc.pb_deficit_exact(alpha, beta, output - 1) >= ADAPTIVE_TOL * (1 - 1e-9))
    return [] if ok else [f"adaptive({alpha!r}, {beta!r}) = {output}, want {want}"]


def _check_report(report, probs, n) -> list:
    p = []
    expected = np.asarray(report.expected)
    observed = np.asarray(report.observed)
    if np.abs(expected - probs).max() > PB_ORACLE_TOL:
        p.append(f"verify {report.model}: expected pmf off the oracle")
    if report.n_samples != n or abs(math.fsum(observed) - 1.0) > 1e-12:
        p.append(f"verify {report.model}: sample count or frequencies wrong")
    counts = np.rint(observed * n)
    z = (counts - n * expected) / np.sqrt(n * expected * (1.0 - expected))
    if np.abs(z - np.asarray(report.z_scores)).max() > 1e-6:
        p.append(f"verify {report.model}: z-scores differ from the recomputed ones")
    if np.abs(z).max() >= Z_LIMIT:
        p.append(f"verify {report.model}: max |z| = {np.abs(z).max():.2f}")
    own = orc.chi_square(counts, expected)
    if not close(report.chi_square, own, 1e-9, 1e-12):
        p.append(f"verify {report.model}: chi2 {report.chi_square!r} != own {own!r}")
    return p


def laws(seed: int, small: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for alpha in law_alphas(rng, small):
        beta = log_uniform(rng, 0.3, 5.0)
        for m in LAW_M:
            name = f"laws/pb({alpha:.4g},{beta:.4g},{m})"
            ops.append(Op(name, lambda a=alpha, b=beta, m=m: gb.pmf_vector(gb.PB(a, b, m)),
                          lambda out, a=alpha, b=beta, m=m, name=name:
                          single(name, _check_pb(out, a, b, m))))

        def adaptive(a=alpha, b=beta):
            try:
                return gb.adaptive_truncation(a, b)
            except ValueError as e:
                return e
        name = f"laws/adaptive({alpha:.4g},{beta:.4g})"
        ops.append(Op(name, adaptive, lambda out, a=alpha, b=beta, name=name:
                      single(name, _check_adaptive(out, a, b))))
    for m in FAULT_M:
        name = f"laws/pb(0.05,1,{m:.0e})"
        ops.append(Op(name, lambda m=m: gb.pb_vector(0.05, 1.0, m),
                      lambda out, m=m, name=name: single(name, _check_pb(out, 0.05, 1.0, m)),
                      known_fault=PB_FAULT))
    for c in [1.0, 2.0] + [log_uniform(rng, 0.05, 10.0) for _ in range(6)]:
        name = f"laws/tspb({c:.4g})"
        ops.append(Op(name, lambda c=c: gb.pmf_vector(gb.TSPB(c)),
                      lambda out, c=c, name=name: single(name, _check_tspb(out, c))))

    # alpha is fixed so that the adaptive m, and with it the memory the PB
    # series takes, stays the same whatever the seed
    alpha, beta = VERIFY_PB_ALPHA, log_uniform(rng, 0.5, 3.0)
    pb_law = gb.PB(alpha, beta, _adaptive_m(alpha, beta))
    c = log_uniform(rng, 0.5, 4.0)
    n = 20_000 if small else VERIFY_N
    mc_seed = int(rng.integers(2 ** 31))
    for model in (gb.Benford(), gb.TSPB(c), pb_law):
        name = f"laws/verify({model})"
        ops.append(Op(name, lambda model=model: gb.verification_report(model, n, mc_seed),
                      lambda out, model=model, name=name:
                      single(name, _check_report(out, _exact_probs(model), n))))
    return ops


def _exact_probs(model) -> np.ndarray:
    if isinstance(model, gb.Benford):
        return orc.benford()
    if isinstance(model, gb.TSPB):
        return orc.tspb(model.c)
    return orc.pb_exact(model.alpha, model.beta, model.m)


# ---------------------------------------------------------------------------
# sequences: every generator at a large parameter, first digits exactly

SEQ_FAULT = ("first_digit_int calls str(), which raises ValueError above "
             "4300 digits (digits.py:55)")

# kind -> parameter; the seed adds up to 1% to each (not to the faults)
SEQUENCE_PARAMS = {
    "fibonacci": 20_000, "catalan": 3000, "bell": 600, "partition": 6000,
    "primes_below": 2_000_000, "lucky": 5000, "ulam": 2000,
    "squares": 500_000, "cubes": 500_000, "pentagonal": 500_000,
    "square_roots": 500_000, "keith": 71, "idoneal": 0,
}
SEQUENCE_FAULTS = (("fibonacci", 30_000), ("catalan", 8000))
# fibonacci above about 20570 terms passes 4300 digits
FIBONACCI_JITTER_CAP = 20_300


def sequence_counts(kind: str, param: int) -> list[int]:
    if kind == "squares":
        return orc.increasing_digit_counts(lambda n: n * n, param)[0]
    if kind == "cubes":
        return orc.increasing_digit_counts(lambda n: n ** 3, param)[0]
    if kind == "pentagonal":
        return orc.increasing_digit_counts(lambda n: n * (3 * n - 1) // 2, param)[0]
    if kind == "square_roots":
        return orc.sqrt_digit_counts(param)
    if kind == "primes_below":
        return orc.sorted_digit_counts(orc.primes_below(param))[0]
    if kind == "keith":
        return orc.largest_remainder(orc.KEITH_71_PCT, 71)
    if kind == "idoneal":
        return orc.largest_remainder(orc.IDONEAL_65_PCT, 65)
    return orc.int_digit_counts(getattr(orc, kind)(param))[0]


def sequence_specs(seed: int, small: bool) -> list:
    """[(kind, param, known_fault)] for one round."""
    rng = np.random.default_rng([seed, 3])
    specs = []
    for kind, param in SEQUENCE_PARAMS.items():
        if kind not in ("keith", "idoneal"):
            if small:
                param = max(10, param // 100)
            param += int(rng.integers(param // 100 + 1))
            if kind == "fibonacci":
                param = min(param, FIBONACCI_JITTER_CAP)
        specs.append((kind, param, ""))
    specs += [(kind, param, SEQ_FAULT) for kind, param in SEQUENCE_FAULTS]
    return specs


def sequences(seed: int, small: bool) -> list[Op]:
    ops = []
    for kind, param, fault in sequence_specs(seed, small):
        name = f"sequences/{kind}({param})"
        spec = gb.SequenceSpec(kind, param)

        def check(hist, kind=kind, param=param, name=name):
            want = sequence_counts(kind, param)
            return single(name, [] if list(hist.counts) == want else
                          [f"{name}: counts {list(hist.counts)} != own {want}"])
        ops.append(Op(name, lambda spec=spec: gb.digit_histogram_of(spec), check,
                      known_fault=fault))
    return ops


WORKLOADS = {"survey": survey, "fits": fits, "laws": laws, "sequences": sequences}

# How far each workload's time follows the host's speed: an operation's
# time is scaled by (REFERENCE_S / reference time) ** exponent (see
# calibrate.py).  Over two sets of ten runs the quartile spread of the
# scaled round time was least at these exponents: fits 2.5% and 6.8%, laws
# 3.0% and 4.4% at 1; survey 4.6% and 4.1% at 0.5 (8.5% and 14% at 1);
# sequences 5.0% and 5.3% at 0.75 (6.3% and 11% at 1).  The PB series of
# survey at m = 5000 slows about half as much as the reference does.
HOST_EXPONENT = {"survey": 0.5, "fits": 1.0, "laws": 1.0, "sequences": 0.75}
