import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import genbenford.distributions as dist
from oracles import pb_series_exact, sieve_primes
from genbenford import (
    PB,
    TSPB,
    Benford,
    DigitHistogram,
    adaptive_truncation,
    chi_square_sf,
    chi_square_stat,
    histogram,
    model_to_dict,
    pb_vector,
    pmf_vector,
    tspb_vector,
)


class TestBenford:
    def test_digit_1(self):
        assert Benford().pmf()[0] == pytest.approx(0.301030, abs=5e-7)

    def test_digit_9(self):
        assert Benford().pmf()[8] == pytest.approx(0.045757, abs=5e-7)

    def test_sums_to_one(self):
        assert math.fsum(Benford().pmf()) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [0, 10, -1])
    def test_rejects_bad_digit(self, bad):
        # a digit outside 1..9 has no probability; the one digit check,
        # where digits are tallied, rejects it
        with pytest.raises(ValueError, match="digit out of range"):
            histogram([bad])


class TestTspb:
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_reduces_to_benford(self, c):
        assert_allclose(tspb_vector(c), Benford().pmf(), atol=1e-14, rtol=0)

    def test_mixing_chi_square_at_published_c(self):
        mixing = DigitHistogram.from_counts([175, 90, 71, 61, 47, 48, 50, 41, 35])
        chi2 = chi_square_stat(mixing, tspb_vector(2.53958))
        assert chi2 == pytest.approx(9.014, abs=0.02)

    @pytest.mark.parametrize("c", np.geomspace(1e-3, 10.0, 25).tolist())
    def test_normalization(self, c):
        assert abs(math.fsum(tspb_vector(c)) - 1.0) < 1e-12

    def test_values_in_unit_interval(self):
        for c in np.geomspace(1e-2, 10.0, 40):
            v = tspb_vector(c)
            assert np.all(v >= 0.0) and np.all(v <= 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_c(self, bad):
        with pytest.raises(ValueError, match="^c "):
            TSPB(bad)


class TestPb:
    def test_near_benford_limit(self):
        v = pb_vector(1e6, 1.0, m=10_000)
        assert np.abs(v - Benford().pmf()).max() < 1e-3

    def test_square_row_chi_square_at_published_params(self):
        squares = DigitHistogram.from_counts([21, 14, 12, 12, 9, 9, 8, 7, 8])
        chi2 = chi_square_stat(squares, pb_vector(15.55957, 1.74552, 100))
        assert chi2 == pytest.approx(0.362, abs=0.02)

    def test_prime_10000_chi_square_at_published_params(self):
        counts = [0] * 9
        for p in sieve_primes(10000):
            counts[int(str(p)[0]) - 1] += 1
        primes = DigitHistogram.from_counts(counts)
        assert primes.sample_size == 1229
        chi2 = chi_square_stat(primes, pb_vector(29.76729, 2.30760, 100))
        assert chi2 == pytest.approx(3.297, abs=0.05)

    @pytest.mark.parametrize("alpha", [0.5, 0.65651, 1.0, 2.0, 15.55957])
    @pytest.mark.parametrize("beta", [0.94576, 1.0, 2.3076])
    @pytest.mark.parametrize("m", [1, 10, 1000])
    def test_truncation_deficit_identity(self, alpha, beta, m):
        total = math.fsum(pb_vector(alpha, beta, m))
        deficit = PB(alpha, beta, m).deficit()
        assert abs(total - (1.0 - deficit)) < 1e-12

    @pytest.mark.parametrize("alpha,beta,m", [
        (1.0, 1.0, 5_000_000_000),
        (2.0, 1.0, 10_000_000),
        (0.7, 1.7, 10 ** 14),
    ])
    def test_truncation_deficit_identity_large_m(self, alpha, beta, m):
        total = math.fsum(pb_vector(alpha, beta, m))
        deficit = PB(alpha, beta, m).deficit()
        assert abs(total - (1.0 - deficit)) < 1e-12

    def test_series_matches_hurwitz_zeta_oracle(self):
        for alpha in (0.05, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 15.55957,
                      1e3, 1e9):
            for m in (1, 12, 13, 14, 100, 5000, 2 * 10 ** 5, 10 ** 9, 10 ** 12,
                      10 ** 15, 10 ** 18):
                expected = pb_series_exact(alpha, m)
                got = dist._series_differences(alpha, m)
                underflow = expected == 0
                msg = f"alpha={alpha}, m={m}"
                assert np.all(got[underflow] == 0), msg
                assert_allclose(got[~underflow], expected[~underflow],
                                rtol=1e-12, atol=0, err_msg=msg)

    def test_m_far_past_int64_matches_oracle(self):
        # m + 1 + log10 d needs 300 of the oracle's digits to keep log10 d
        m = 10 ** 300
        series = pb_series_exact(0.5, m, dps=360)
        expected = (0.5 * Benford().pmf() + series) / 1.5
        assert_allclose(pb_vector(0.5, 1.0, m), expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [dist._M_LIMIT, 2 ** 1024, 10 ** 400],
                             ids=["int_float_max", "2**1024", "10**400"])
    def test_rejects_m_past_float_range(self, m):
        with pytest.raises(ValueError):
            PB(2.0, 1.0, m)

    def test_largest_m_is_finite(self):
        m = dist._M_LIMIT - 1
        assert np.all(np.isfinite(pb_vector(2.0, 1.0, m)))
        assert PB(2.0, 1.0, m).deficit() == 0.0

    def test_values_in_unit_interval(self):
        for alpha in (0.5, 1.0, 5.0, 100.0, 1e40, 1e300):
            for beta in (0.5, 1.0, 3.0):
                v = pb_vector(alpha, beta, 500)
                assert np.all(v >= 0.0) and np.all(v <= 1.0)

    @pytest.mark.parametrize("alpha,beta,expected", [
        (1e308, 1e308, 0.5),
        (sys.float_info.max, sys.float_info.max, 0.5),
        (1e308, 8e307, 8 / 18),
    ])
    def test_weights_past_float_max(self, alpha, beta, expected):
        # alpha + beta overflows; at such exponents the series is 1 on digit 1
        # and the power term 1 on digit 9, so the cells are the two weights
        assert math.isinf(alpha + beta)
        v = PB(alpha, beta, 100).pmf()
        assert v[0] == pytest.approx(expected, rel=1e-15)
        assert v[8] == pytest.approx(1 - expected, rel=1e-15)
        assert np.all(v[1:8] == 0.0)
        assert PB(alpha, beta, 100).deficit() == 0.0

    @pytest.mark.parametrize("alpha,beta", [(1e308, 1.0), (1e308, 1e308), (1.0, 1e308),
                                            (sys.float_info.max, 1e-300)])
    @pytest.mark.parametrize("m", [5, 100, 10 ** 300], ids=["5", "100", "10**300"])
    def test_no_warning_at_huge_parameters(self, alpha, beta, m):
        # the series' products of alpha and the log table once overflowed,
        # and so did alpha + beta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = PB(alpha, beta, m).pmf()
            deficit = PB(alpha, beta, m).deficit()
        assert np.all(v >= 0) and abs(math.fsum(v) - (1 - deficit)) < 1e-15

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "PB's relative error grows like eps/alpha: at alpha = 1e-30 the cells at digits "
        "4, 7 and 9 are -1.4e-17, -4.2e-17 and -6.9e-17 (ROADMAP item 6)"))
    def test_tiny_alpha_has_no_negative_cell(self):
        assert (PB(1e-30, 1.0, 1000).pmf() >= 0).all()

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0, beta=1.0, m=10),
        dict(alpha=1.0, beta=-2.0, m=10),
        dict(alpha=1.0, beta=1.0, m=0),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            PB(**kwargs)


class TestAdaptiveTruncation:
    # at the last four laws the closed-form estimate overshoots the least
    # index (10^10 against 9,999,999,999 at (0.9, 0.1), by 91 at (0.55, 0.1))
    # and the downward search moves it
    @pytest.mark.parametrize("alpha,beta", [(2.0, 1.0), (5.0, 2.0), (1.0, 1.0), (0.9, 0.1),
                                            (0.6, 1.0), (0.6, 5.0), (0.55, 0.1)])
    def test_minimal_index_below_tolerance(self, alpha, beta):
        m = adaptive_truncation(alpha, beta)
        assert PB(alpha, beta, m).deficit() < 1e-10
        assert PB(alpha, beta, m - 1).deficit() >= 1e-10

    def test_refuses_absurd_index(self):
        with pytest.raises(ValueError):
            adaptive_truncation(0.01, 1.0)


class TestChiSquareSf:
    @pytest.mark.parametrize("df", [1, 2, 7, 8, 30])
    def test_sf_at_zero(self, df):
        assert chi_square_sf(0.0, df) == 1.0

    def test_monotone_decreasing(self):
        for df in (1, 6, 8):
            xs = np.linspace(0.0, 60.0, 200)
            vals = [chi_square_sf(x, df) for x in xs]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x,df", [(15.550, 8), (9.014, 7), (1.819, 6),
                                      (443.745, 8), (0.333, 6), (2.5, 1)])
    def test_against_independent_gamma_oracle(self, x, df):
        with mpmath.workdps(40):
            expected = float(mpmath.gammainc(df / 2, x / 2, mpmath.inf,
                                             regularized=True))
        assert abs(chi_square_sf(x, df) - expected) < 1e-10

    def test_huge_df_sums_few_terms_and_stays_a_probability(self):
        # df/2 = 5e8 terms in all; only those near the peak are summed
        assert chi_square_sf(5.0, 10 ** 9) == 1.0
        assert chi_square_sf(1e300, 10 ** 9) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            chi_square_sf(-0.1, 8)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)


class TestModels:
    def test_pmf_vector_dispatch(self):
        assert_allclose(pmf_vector(Benford()), Benford().pmf(), rtol=0, atol=0)
        assert_allclose(pmf_vector(TSPB(c=1.5)), tspb_vector(1.5), rtol=0, atol=0)
        assert_allclose(pmf_vector(PB(2.0, 1.0, 50)), pb_vector(2.0, 1.0, 50),
                        rtol=0, atol=0)

    @pytest.mark.parametrize("model", [Benford(), TSPB(c=2.5),
                                       PB(alpha=4.7, beta=1.8, m=100)])
    def test_json_round_trip(self, model):
        # the JSON form is the law's tag and its fields, enough to rebuild it
        rec = json.loads(json.dumps(model_to_dict(model)))
        assert dist._LAWS[rec.pop("model")](**rec) == model

    def test_default_truncation(self):
        assert PB(alpha=1.0, beta=1.0).m == 1000

    @pytest.mark.parametrize("bad", [dict(c=0.0), dict(c=-3.0), dict(c=math.nan)])
    def test_tspb_validation(self, bad):
        with pytest.raises(ValueError):
            TSPB(**bad)

    def test_pb_validation(self):
        with pytest.raises(ValueError):
            PB(alpha=1.0, beta=1.0, m=0)
        with pytest.raises(ValueError):
            PB(alpha=-1.0, beta=1.0)


def test_import_leaves_mpmath_unloaded():
    # mpmath is a test dependency only; importing the package must not load it
    src = str(Path(dist.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, genbenford; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; importing the package must not load it
    src = str(Path(dist.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, genbenford; "
            "print(any(name.split('.')[0] == 'scipy' for name in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
