"""Acceptance suite: regression of the full published survey.

Eight numbered criteria cover: generated-row Benford chi-squares (1),
reconstructed-row Benford chi-squares (2), minimized TSPB/PB chi-squares
and their p-values (3), the large-prime breakdown of the PB fit (4), exact
normalization identities (5), Monte Carlo checks of the digit laws against
their samplers (6), oracle equivalences for the sequence generators and
the 1-D fitter (7), and chi-square tail spot values (8).

Each criterion prints a PASS/FAIL line (run with `pytest -s` to see them
live).  Three published cells are provably wrong (a transposed pair in the
cube-10000 row, a Bell data-source error, and a Princeton TSPB misprint)
and one published optimum (the large-prime 1391) is not a true minimum;
the corresponding literal checks are kept at full strength but marked
strict-xfail, each with a passing companion test that pins down the truth.
"""
import math
import time

import numpy as np
import pytest

from genbenford import (
    PB,
    TSPB,
    Benford,
    DigitHistogram,
    adaptive_truncation,
    chi_square_sf,
    chi_square_stat,
    empirical_digit_pmf,
    fit_pb,
    fit_tspb,
    histogram_from_percentages,
    pb_truncation_deficit,
    pb_vector,
    pmf_vector,
    tspb_vector,
)
from oracles import bell_binomial, partitions_dp, sieve_primes, tspb_dense_grid_min

SEED = 20240811

# Published per-row statistics: (benford chi2, benford p%, tspb chi2,
# tspb p%, pb chi2, pb p%).
REFERENCE = {
    "square":      (9.096, 33.43, 7.837, 34.72, 0.362, 99.91),
    "cube-500":    (9.696, 28.70, 5.808, 56.23, 0.286, 99.96),
    "cube-1000":   (46.459, 0.00, 43.725, 0.00, 0.480, 99.81),
    "cube-10000":  (443.745, 0.00, 472.011, 0.00, 3.138, 79.13),
    "square-root": (8.612, 37.61, 7.002, 42.86, 2.778, 83.61),
    "prime-100":   (7.741, 45.91, 7.299, 39.84, 1.849, 93.30),
    "prime-1000":  (45.016, 0.00, 36.651, 0.00, 0.333, 99.93),
    "prime-10000": (387.194, 0.00, 307.322, 0.00, 3.297, 77.07),
    "princeton":   (3.452, 90.29, 2.762, 89.72, 1.302, 97.16),
    "mixing":      (15.550, 4.93, 9.014, 25.17, 1.819, 93.55),
    "pentagonal":  (5.277, 72.76, 2.127, 95.24, 1.968, 92.26),
    "keith":       (9.215, 32.45, 7.688, 36.09, 7.402, 28.53),
    "bell":        (3.069, 93.00, 3.014, 88.37, 2.607, 85.63),
    "catalan":     (2.404, 96.61, 2.304, 94.11, 1.934, 92.57),
    "lucky":       (7.693, 46.40, 5.165, 63.98, 5.564, 47.37),
    "ulam":        (6.350, 60.81, 2.520, 92.56, 2.526, 86.56),
    "idoneal":     (2.594, 95.72, 2.522, 92.54, 2.584, 85.89),
    "fibonacci":   (1.029, 99.81, 1.021, 99.45, 1.027, 98.46),
    "partition":   (1.394, 99.43, 1.132, 99.24, 1.513, 95.86),
}

# rows whose generated Benford chi-square must match the published value
GENERATED_CLEAN = ["square", "cube-500", "cube-1000", "prime-100",
                   "prime-1000", "prime-10000", "pentagonal", "fibonacci",
                   "catalan"]
RECONSTRUCTED = ["mixing", "princeton", "square-root", "keith", "lucky",
                 "ulam", "idoneal", "partition"]


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")


# -- criterion 1: generated rows, Benford column ----------------------------


def test_criterion_1_generated_benford_chi_square(histograms):
    failures = []
    for key in GENERATED_CLEAN:
        chi2 = chi_square_stat(histograms[key], Benford().pmf())
        ref = REFERENCE[key][0]
        if abs(chi2 - ref) > 0.005 * ref:
            failures.append(f"{key}: {chi2:.3f} vs {ref}")
    ok = not failures
    report(1, ok, f"generated Benford chi2 within 0.5% on "
                  f"{len(GENERATED_CLEAN)} rows (cube-10000 and bell "
                  f"tracked separately)" + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


@pytest.mark.xfail(strict=True,
                   reason="published cube-10000 row transposes its Benford and "
                          "TSPB chi-squares; the true Benford value is 472.011")
def test_criterion_1_cube_10000_as_printed(histograms):
    chi2 = chi_square_stat(histograms["cube-10000"], Benford().pmf())
    ref = REFERENCE["cube-10000"][0]
    report(1, abs(chi2 - ref) <= 0.005 * ref,
           f"cube-10000 Benford chi2 as printed: computed {chi2:.3f} vs {ref}")
    assert abs(chi2 - ref) <= 0.005 * ref


def test_cube_10000_cells_are_transposed(histograms):
    # the printed Benford cell equals TSPB at the row's own published
    # estimate c = 2.27054, and the printed TSPB cell equals Benford
    h = histograms["cube-10000"]
    benford_chi2 = chi_square_stat(h, Benford().pmf())
    tspb_chi2 = chi_square_stat(h, tspb_vector(2.27054))
    assert benford_chi2 == pytest.approx(472.011, abs=0.01)
    assert tspb_chi2 == pytest.approx(443.745, abs=0.01)


@pytest.mark.xfail(strict=True,
                   reason="published Bell percentages do not match true Bell "
                          "numbers under any indexing; generated chi2 is 7.169")
def test_criterion_1_bell_as_printed(histograms):
    chi2 = chi_square_stat(histograms["bell"], Benford().pmf())
    ref = REFERENCE["bell"][0]
    report(1, abs(chi2 - ref) <= 0.005 * ref,
           f"bell Benford chi2 as printed: computed {chi2:.3f} vs {ref}")
    assert abs(chi2 - ref) <= 0.005 * ref


def test_bell_row_statistics_consistent_with_its_percentages(rows):
    # the published Bell chi-square IS reproducible from the published
    # percentages, so the source data (not the arithmetic) was wrong
    h = histogram_from_percentages(rows["bell"].percentages, rows["bell"].n)
    assert chi_square_stat(h, Benford().pmf()) == pytest.approx(3.069, abs=0.01)
    assert chi_square_stat(h, tspb_vector(1.08191)) == pytest.approx(3.014, abs=0.02)
    assert chi_square_stat(h, pb_vector(10.14820, 1.24828, 100)) == pytest.approx(2.607, abs=0.02)


# -- criterion 2: reconstructed rows, Benford column -------------------------


def test_criterion_2_reconstructed_benford_chi_square(histograms):
    failures = []
    for key in RECONSTRUCTED:
        chi2 = chi_square_stat(histograms[key], Benford().pmf())
        ref = REFERENCE[key][0]
        if abs(chi2 - ref) > 0.1:
            failures.append(f"{key}: {chi2:.3f} vs {ref}")
    report(2, not failures,
           f"reconstructed Benford chi2 within 0.1 on {len(RECONSTRUCTED)} rows"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


# -- criterion 3: minimized TSPB and PB columns ------------------------------


def _column_check(fits, column, ref_index, skip=()):
    failures = []
    for key, ref in REFERENCE.items():
        if key in skip:
            continue
        fit = fits[key][column]
        ref_chi2, ref_p = ref[ref_index], ref[ref_index + 1]
        if fit.chi_square > ref_chi2 + 0.05:
            failures.append(f"{key}: chi2 {fit.chi_square:.3f} > {ref_chi2} + 0.05")
        elif abs(fit.chi_square - ref_chi2) <= 0.05:
            if abs(100.0 * fit.p_value - ref_p) > 0.3:
                failures.append(f"{key}: p {100 * fit.p_value:.2f}% vs {ref_p}%")
    return failures


def test_criterion_3_tspb_column(fits):
    failures = _column_check(fits, "tspb", 2, skip=("princeton", "bell"))
    report(3, not failures, "TSPB minimized chi2 <= published + 0.05 and "
                            "p within 0.3pp (princeton, bell tracked separately)"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


def test_criterion_3_pb_column(fits):
    failures = _column_check(fits, "pb", 4, skip=("bell",))
    report(3, not failures, "PB minimized chi2 <= published + 0.05 and "
                            "p within 0.3pp (bell tracked separately)"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


def test_criterion_3_named_examples(fits):
    mixing = fits["mixing"]["pb"]
    assert mixing.chi_square == pytest.approx(1.819, abs=0.05)
    assert mixing.p_value == pytest.approx(0.9355, abs=0.002)
    prime = fits["prime-1000"]["pb"]
    assert prime.chi_square == pytest.approx(0.333, abs=0.05)
    assert prime.p_value == pytest.approx(0.9993, abs=0.002)


@pytest.mark.xfail(strict=True,
                   reason="published Princeton TSPB chi2 (2.762) is a misprint: "
                          "the global minimum over c is 2.865, reached at the "
                          "row's own published estimate c = 2.7617")
def test_criterion_3_princeton_tspb_as_printed(fits):
    fit = fits["princeton"]["tspb"]
    ref = REFERENCE["princeton"][2]
    report(3, fit.chi_square <= ref + 0.05,
           f"princeton TSPB as printed: minimized {fit.chi_square:.3f} vs {ref}")
    assert fit.chi_square <= ref + 0.05


def test_princeton_fitted_c_matches_published_estimate(fits, histograms):
    fit = fits["princeton"]["tspb"]
    assert fit.model.c == pytest.approx(2.76170, abs=5e-4)
    # dense-grid confirmation that no deeper minimum exists
    oracle_c, oracle_val = tspb_dense_grid_min(histograms["princeton"].counts)
    assert oracle_c == pytest.approx(fit.model.c, abs=1e-3)
    assert abs(fit.chi_square - oracle_val) < 1e-6
    assert fit.chi_square == pytest.approx(2.865, abs=0.005)
    # the published p-value (89.72%) was computed from THIS minimum, which
    # pins the printed chi2 cell (2.762) as the misprint
    assert 100.0 * fit.p_value == pytest.approx(89.72, abs=0.05)


@pytest.mark.xfail(strict=True,
                   reason="published Bell row rests on erroneous source data; "
                          "fits to true Bell numbers are necessarily worse")
def test_criterion_3_bell_as_printed(fits):
    t, p = fits["bell"]["tspb"], fits["bell"]["pb"]
    ok = (t.chi_square <= REFERENCE["bell"][2] + 0.05
          and p.chi_square <= REFERENCE["bell"][4] + 0.05)
    report(3, ok, f"bell fits as printed: tspb {t.chi_square:.3f} vs "
                  f"{REFERENCE['bell'][2]}, pb {p.chi_square:.3f} vs "
                  f"{REFERENCE['bell'][4]}")
    assert ok


# -- criterion 4: large-prime breakdown --------------------------------------


@pytest.fixture(scope="module")
def large_prime_fit():
    start = time.monotonic()
    counts = [0] * 9
    for p in sieve_primes(1_000_000):
        counts[int(str(p)[0]) - 1] += 1
    h = DigitHistogram.from_counts(counts)
    fit = fit_pb(h, m=100)
    elapsed = time.monotonic() - start
    return h, fit, elapsed


def test_criterion_4_large_prime_rejection(large_prime_fit):
    h, fit, elapsed = large_prime_fit
    ok = h.sample_size == 78498 and fit.p_value < 1e-6 and elapsed < 60.0
    report(4, ok, f"PB fit to the {h.sample_size} primes below 1e6: "
                  f"chi2 {fit.chi_square:.1f}, p {fit.p_value:.2e}, "
                  f"{elapsed:.1f}s (chi2 > 500 literal tracked separately)")
    assert h.sample_size == 78498
    assert fit.p_value < 1e-6
    assert elapsed < 60.0


@pytest.mark.xfail(strict=True,
                   reason="the published minimum (1391) is not a true minimum: "
                          "the deterministic fit reaches 193, "
                          "which still rejects at p ~ 6e-39")
def test_criterion_4_chi_square_exceeds_500_as_stated(large_prime_fit):
    _, fit, _ = large_prime_fit
    report(4, fit.chi_square > 500.0,
           f"large-prime minimized chi2 as printed: {fit.chi_square:.1f} vs > 500")
    assert fit.chi_square > 500.0


# -- criterion 5: exact normalization ----------------------------------------


def test_criterion_5_normalization_identities():
    failures = []
    for c in np.geomspace(1e-3, 10.0, 80):
        if abs(math.fsum(tspb_vector(c)) - 1.0) >= 1e-12:
            failures.append(f"tspb c={c}")
    for alpha in (0.5, 0.65651, 1.0, 2.0, 15.55957):
        for beta in (0.94576, 1.0, 2.3076):
            for m in (1, 10, 100, 1000):
                total = math.fsum(pb_vector(alpha, beta, m))
                deficit = pb_truncation_deficit(alpha, beta, m)
                if abs(total - (1.0 - deficit)) >= 1e-12:
                    failures.append(f"pb({alpha},{beta},{m})")
    for c in (1.0, 2.0):
        if np.abs(tspb_vector(c) - Benford().pmf()).max() >= 1e-14:
            failures.append(f"tspb({c}) != benford")
    report(5, not failures, "TSPB normalization (1e-12), PB deficit identity "
                            "(1e-12), TSPB(1)=TSPB(2)=Benford (1e-14)"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


# -- criterion 6: Monte Carlo theorem checks ---------------------------------


MC_CASES = ([("tspb", TSPB(c=c)) for c in (0.5, 1.0, 2.0, 3.0)] +
            [("pb", PB(alpha=a, beta=b, m=1))
             for a, b in ((1.0, 1.0), (2.0, 1.0), (5.0, 2.0), (0.7, 1.7))])


def test_criterion_6_monte_carlo_three_sigma():
    n = 1_000_000
    failures = []
    for kind, model in MC_CASES:
        if isinstance(model, PB):
            m = adaptive_truncation(model.alpha, model.beta)
            model = PB(alpha=model.alpha, beta=model.beta, m=m)
        probs = pmf_vector(model)
        h = empirical_digit_pmf(model, n, seed=SEED)
        counts = np.asarray(h.counts, dtype=float)
        sigma = np.sqrt(n * probs * (1.0 - probs))
        z = np.abs(counts - n * probs) / sigma
        if z.max() >= 3.0:
            failures.append(f"{model}: max |z| = {z.max():.2f}")
    report(6, not failures,
           f"empirical vs analytic pmf within 3 sigma per digit for "
           f"{len(MC_CASES)} models at n=1e6, seed={SEED}"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


# -- criterion 7: oracle equivalences ----------------------------------------


def test_criterion_7_oracle_equivalences(histograms):
    from genbenford import bell, partition

    ok_partition = list(partition(50)) == partitions_dp(50)[1:]
    ok_bell = list(bell(20)) == bell_binomial(20)[1:]

    fitter_failures = []
    for key in ("square", "mixing", "prime-1000", "pentagonal", "ulam"):
        _, oracle_val = tspb_dense_grid_min(histograms[key].counts)
        fit = fit_tspb(histograms[key])
        if abs(fit.chi_square - oracle_val) >= 1e-6:
            fitter_failures.append(f"{key}: {fit.chi_square} vs {oracle_val}")

    ok = ok_partition and ok_bell and not fitter_failures
    report(7, ok, "partition vs DP oracle (n<=50), bell vs binomial recurrence "
                  "(n<=20), 1-D fitter vs dense grid on 5 histograms (<1e-6)"
           + ("; " + "; ".join(fitter_failures) if fitter_failures else ""))
    assert ok_partition
    assert ok_bell
    assert not fitter_failures


# -- criterion 8: chi-square tail spot checks --------------------------------


def test_criterion_8_sf_spot_checks():
    checks = [
        (15.550, 8, 0.0493, 0.0005),
        (9.014, 7, 0.2517, 0.0005),
        (1.819, 6, 0.9355, 0.002),
    ]
    failures = []
    for x, df, expected, tol in checks:
        got = chi_square_sf(x, df)
        if abs(got - expected) > tol:
            failures.append(f"sf({x},{df}) = {got:.5f} vs {expected}")
    report(8, not failures, "chi-square tail spot values at df 8/7/6"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


# -- companions: degrees-of-freedom convention -------------------------------


def test_df_convention_consistent_across_published_rows():
    # published chi2 and p%-columns must agree under df = 8/7/6; checked on
    # rows whose p-values are not saturated at 0, excluding the princeton
    # TSPB chi2 misprint (its p-value matches the true minimum instead)
    agree = 0
    for key, (b2, bp, t2, tp, p2, pp) in REFERENCE.items():
        if key in ("cube-10000", "bell"):
            continue
        cells = [(b2, bp, 8), (p2, pp, 6)]
        if key != "princeton":
            cells.append((t2, tp, 7))
        for chi2, p_pct, df in cells:
            if p_pct > 0.5:
                assert 100.0 * chi_square_sf(chi2, df) == pytest.approx(p_pct, abs=0.05)
                agree += 1
    assert agree >= 15
