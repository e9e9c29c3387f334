import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from genbenford import (
    PB,
    TSPB,
    Benford,
    GbmParams,
    adaptive_truncation,
    empirical_digit_pmf,
    first_digit_real,
    gbm_char_roots,
    histogram,
    pb_truncation_deficit,
    pmf_vector,
    sample_dp,
    sample_tspp,
    verification_report,
)
from genbenford.digits import _digits_from_log10_fractions
from genbenford.sampling import _SAMPLE_CHUNK, _draw_in_order
from oracles import dp_cdf, tspp_cdf


def tspp_pdf(w, alpha, c):
    if w <= alpha:
        return 0.5 * c * (w / alpha) ** (c - 1)
    return 0.5 * c * ((2 - w) / (2 - alpha)) ** (c - 1)


def dp_pdf(w, alpha, beta):
    coef = alpha * beta / (alpha + beta)
    if w <= 1:
        return coef * w ** (beta - 1)
    return coef * w ** (-alpha - 1)


class TestSampleTspp:
    def test_uniform_case(self):
        assert sample_tspp(1.0, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_triangular_median(self):
        assert sample_tspp(2.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_lower_branch_closed_form(self):
        assert sample_tspp(2.5, 0.3) == pytest.approx(0.6 ** 0.4, abs=1e-15)

    @pytest.mark.parametrize("c,u", [(2.5, 0.3), (0.7, 0.8)])
    def test_quadrature_recovers_u(self, c, u):
        w = sample_tspp(c, u)
        mass, err = integrate.quad(tspp_pdf, 0.0, w, args=(1.0, c),
                                   points=[1.0], limit=200)
        assert mass == pytest.approx(u, abs=max(1e-10, 10 * err))

    def test_vectorized_matches_scalar(self):
        u = np.linspace(0.0, 0.999, 57)
        vec = sample_tspp(2.5, u)
        assert sample_tspp(2.5, 0.3).shape == ()  # a scalar u gives a 0-d array
        assert vec == pytest.approx([float(sample_tspp(2.5, x)) for x in u])

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            sample_tspp(-1.0, 0.5)
        with pytest.raises(ValueError):
            sample_tspp(1.0, 1.0)
        with pytest.raises(ValueError):
            sample_tspp(1.0, -0.1)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 9.0])
    def test_each_branch_bit_for_bit(self, c):
        half = [0.0, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
                math.nextafter(1.0, 0.0)]
        u = np.concatenate([np.random.default_rng(3).random(10_000), half])
        lower, upper = u <= 0.5, u > 0.5
        w = sample_tspp(c, u)
        np.testing.assert_array_equal(w[lower], (2.0 * u[lower]) ** (1.0 / c))
        np.testing.assert_array_equal(w[upper], 2.0 - (2.0 * (1.0 - u[upper])) ** (1.0 / c))
        assert sample_tspp(c, 0.5) == 1.0  # the mode, on the lower branch

    @pytest.mark.parametrize("c", [0.5, 2.5])
    def test_kolmogorov_smirnov(self, c):
        rng = np.random.default_rng(1234)
        w = sample_tspp(c, rng.random(100_000))
        stat = stats.kstest(w, lambda x: tspp_cdf(x, 1.0, c)).statistic
        assert stat < 0.01


@pytest.mark.parametrize("model", [TSPB(0.05), TSPB(2.5), PB(3.0, 1.27), PB(1e9, 0.05)], ids=str)
def test_branches_leave_their_uniforms_alone(model):
    u = np.concatenate([np.random.default_rng(3).random(10_000), [0.0, 0.5, math.nextafter(1.0, 0.0)]])
    u.flags.writeable = False  # a branch writing into u raises
    kept = u.copy()
    split, lower, upper = model.exponent_branches()
    if isinstance(model, TSPB):
        w, shift = sample_tspp(model.c, u), 2.0  # the upper branch draws W - 2
    else:
        w, shift = sample_dp(model.alpha, model.beta, u), 0.0
    below = u < split
    np.testing.assert_array_equal(lower(u)[below], w[below])
    np.testing.assert_array_equal(upper(u)[~below] + shift, w[~below])
    np.testing.assert_array_equal(u, kept)


def test_the_law_checks_its_parameters_before_u_is_checked():
    with pytest.raises(ValueError, match="^c must be a positive real"):
        sample_tspp(-1.0, 2.0)
    with pytest.raises(ValueError, match="^alpha must be a positive real"):
        sample_dp(0.0, 1.0, 2.0)


@pytest.mark.parametrize("draw", [lambda u: sample_tspp(1.0, u),
                                  lambda u: sample_dp(2.0, 1.0, u)], ids=["tspp", "dp"])
@pytest.mark.parametrize("u", [math.nan, [0.3, math.nan]], ids=["scalar", "array"])
def test_nan_uniforms_are_rejected(draw, u):
    with pytest.raises(ValueError, match=r"u must lie in \[0, 1\)"):
        draw(u)


class TestSampleDp:
    def test_lower_branch(self):
        assert sample_dp(1.0, 1.0, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_branch_point(self):
        assert sample_dp(1.0, 1.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_upper_branch_closed_form(self):
        assert sample_dp(2.0, 1.0, 0.9) == pytest.approx(0.3 ** -0.5, abs=1e-14)

    @pytest.mark.parametrize("alpha,beta,u", [
        (2.0, 1.0, 0.9), (1.0, 1.0, 0.2), (0.7, 1.7, 0.95), (5.0, 2.0, 0.5),
    ])
    def test_quadrature_recovers_u(self, alpha, beta, u):
        w = sample_dp(alpha, beta, u)
        mass, err = integrate.quad(dp_pdf, 0.0, w, args=(alpha, beta),
                                   points=[1.0] if w > 1 else None, limit=200)
        assert mass == pytest.approx(u, abs=max(1e-9, 10 * err))

    def test_mass_below_one(self):
        # P(W <= 1) = alpha / (alpha + beta)
        assert sample_dp(2.0, 1.0, 2.0 / 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_huge_exponents_draw_near_one(self):
        # alpha + beta overflows float64; DP(1, alpha, beta) concentrates at 1
        w = sample_dp(1e308, 1e308, [0.1, 0.5, 0.9])
        np.testing.assert_allclose(w, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(3.0, 1.27), (1.0, 2.0), (2.0, 0.5),
                                            (0.2, 5.0), (1e9, 1.0)])
    def test_each_branch_bit_for_bit(self, alpha, beta):
        split = 1.0 / (1.0 + beta / alpha)
        edge = [0.0, math.nextafter(split, 0.0), split, math.nextafter(split, 1.0),
                math.nextafter(1.0, 0.0)]
        u = np.concatenate([np.random.default_rng(3).random(10_000), edge])
        lower, upper = u < split, u >= split
        w = sample_dp(alpha, beta, u)
        np.testing.assert_array_equal(
            w[lower], ((1.0 + beta / alpha) * u[lower]) ** (1.0 / beta))
        np.testing.assert_array_equal(
            w[upper], ((1.0 + alpha / beta) * (1.0 - u[upper])) ** (-1.0 / alpha))
        assert sample_dp(alpha, beta, 0.3).shape == ()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            sample_dp(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            sample_dp(1.0, math.inf, 0.5)
        with pytest.raises(ValueError):
            sample_dp(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("alpha,beta", [(2.0, 1.0), (0.7, 1.7)])
    def test_kolmogorov_smirnov(self, alpha, beta):
        rng = np.random.default_rng(1234)
        w = sample_dp(alpha, beta, rng.random(100_000))
        stat = stats.kstest(w, lambda x: dp_cdf(x, alpha, beta)).statistic
        assert stat < 0.01


def _sampler_digit(w):
    """The first digit of 10^w as empirical_digit_pmf reads it off w."""
    return int(_digits_from_log10_fractions(np.array([w - math.floor(w)]))[0])


class TestFirstDigitOfExponent:
    @pytest.mark.parametrize("w,digit", [
        (0.5, 3),         # 10^0.5 = 3.162...
        (1.0, 1),
        (0.0, 1),
        (2.301030, 2),
        (1.95424, 8),     # 10^0.95424 = 8.99995 < 9; exact floor
    ])
    def test_values(self, w, digit):
        assert _sampler_digit(w) == digit
        assert first_digit_real(10 ** w) == digit

    def test_boundary_guard_snaps_to_digit(self):
        # frac lands a float rounding error below log10(9).  The sampler reads
        # the draw as the float it is, with no guard: 10^w = 89.99999999999998,
        # digit 8.  first_digit_real's guard reads the real 10^w as 9.
        w = 1.0 + math.log10(9.0)
        assert _sampler_digit(w) == 8
        assert first_digit_real(10 ** w) == 9


class TestEmpiricalDigitPmf:
    def test_single_sample(self):
        h = empirical_digit_pmf(Benford(), 1, seed=7)
        assert h.sample_size == 1
        assert sum(h.counts) == 1

    def test_reproducible(self):
        a = empirical_digit_pmf(TSPB(c=1.5), 10_000, seed=99)
        b = empirical_digit_pmf(TSPB(c=1.5), 10_000, seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        a = empirical_digit_pmf(Benford(), 10_000, seed=1)
        b = empirical_digit_pmf(Benford(), 10_000, seed=2)
        assert a != b

    def test_tspb_c1_is_benford(self):
        h = empirical_digit_pmf(TSPB(c=1.0), 1_000_000, seed=20240811)
        tv = 0.5 * np.abs(h.frequencies() - Benford().pmf()).sum()
        assert tv < 0.005

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_tspb_within_three_sigma_per_digit(self, c):
        n = 200_000
        probs = pmf_vector(TSPB(c=c))
        h = empirical_digit_pmf(TSPB(c=c), n, seed=20240811)
        counts = np.asarray(h.counts, dtype=float)
        sigma = np.sqrt(n * probs * (1.0 - probs))
        assert np.all(np.abs(counts - n * probs) < 3.0 * sigma)

    def test_pb_matches_analytic_pmf(self):
        m = adaptive_truncation(2.0, 1.0)
        model = PB(alpha=2.0, beta=1.0, m=m)
        h = empirical_digit_pmf(model, 1_000_000, seed=20240811)
        tv = 0.5 * np.abs(h.frequencies() - pmf_vector(model)).sum()
        assert tv < 0.005

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            empirical_digit_pmf(Benford(), 0, seed=1)

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, -3, "1000", None])
    def test_rejects_a_count_that_is_no_integer_ge_1(self, n):
        with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
            empirical_digit_pmf(Benford(), n, seed=1)
        with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
            verification_report(Benford(), n, seed=1)

    def test_an_integral_float_count_is_that_count(self):
        rep = verification_report(TSPB(2.0), 1000.0, seed=5)
        assert type(rep.n_samples) is int
        assert rep == verification_report(TSPB(2.0), 1000, seed=5)


def _one_draw(model, n, seed):
    """The tally of one draw of n uniforms through the law's own branches,
    unshifted: TSPB's upper branch draws W - 2, whose fraction keeps a tiny
    2 - W that W itself rounds away."""
    u = np.random.default_rng(seed).random(n)
    branches = model.exponent_branches()
    w = u if branches is None else _draw_in_order(u, *branches)
    return histogram(_digits_from_log10_fractions(w - np.floor(w)))


_log_uniform = st.floats(-1.3, 9.0).map(lambda x: 10.0 ** x)


class TestChunkedDraws:
    """The draws come in chunks of _SAMPLE_CHUNK and tally as one draw."""

    @pytest.mark.parametrize("model", [Benford(), TSPB(2.5), PB(3, 1.27, 1437)], ids=str)
    @pytest.mark.parametrize("n", [1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 3 * 2 ** 16 + 7])
    def test_tally_is_that_of_one_draw(self, model, n):
        assert empirical_digit_pmf(model, n, 11) == _one_draw(model, n, 11)

    @settings(max_examples=30, deadline=None, database=None)
    @given(model=st.just(Benford()) | st.floats(0.05, 10.0).map(TSPB)
           | st.builds(PB, _log_uniform, _log_uniform),
           n=st.sampled_from([_SAMPLE_CHUNK - 1, _SAMPLE_CHUNK + 1, 3 * _SAMPLE_CHUNK + 7]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(model=TSPB(0.05), n=_SAMPLE_CHUNK + 1, seed=5)  # 27% of draws in the last cell
    @example(model=TSPB(1.0), n=_SAMPLE_CHUNK + 1, seed=1)
    @example(model=TSPB(2.0), n=3 * _SAMPLE_CHUNK + 7, seed=2)
    @example(model=PB(1e9, 0.05), n=_SAMPLE_CHUNK - 1, seed=3)
    @example(model=PB(0.05, 1e9), n=_SAMPLE_CHUNK + 1, seed=4)
    def test_tally_by_cells_is_that_of_one_draw(self, model, n, seed):
        assert empirical_digit_pmf(model, n, seed) == _one_draw(model, n, seed)

    # recorded from the tally that drew and read every digit, before the
    # tally counted by cells
    @pytest.mark.parametrize("model,counts", [
        (Benford(), (300661, 176224, 124836, 97168, 79163, 67112, 58019, 51150, 45667)),
        (TSPB(2.5), (321142, 159034, 110644, 88713, 75962, 68052, 62487, 58590, 55376)),
        (PB(3, 1.27, 1437), (332546, 171262, 118351, 91294, 74579, 63797, 54873, 48996, 44302)),
    ], ids=str)
    def test_a_million_draws_keep_their_counts(self, model, counts):
        assert empirical_digit_pmf(model, 1_000_000, 20240811).counts == counts

    def test_a_million_draws_stay_small(self):
        # a chunk's uniforms, draws, fractions, masks and cells take about
        # 0.8 MB at the peak; TSPB(0.05) puts 27% of its draws in the last
        # cell, which is counted by cell like the others.  One draw first
        # imports what numpy's default_rng imports lazily (about 0.7 MB in a
        # fresh process), which is not the tally's
        empirical_digit_pmf(PB(3, 1.27, 1437), 1, 1)
        for model in (PB(3, 1.27, 1437), TSPB(0.05)):
            tracemalloc.start()
            try:
                empirical_digit_pmf(model, 1_000_000, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5e6, model


class TestVerificationReport:
    def test_report_shape_and_pass(self):
        rep = verification_report(TSPB(c=2.0), 100_000, seed=42)
        assert len(rep.expected) == 9 and len(rep.z_scores) == 9
        assert rep.passed()
        assert rep.max_abs_z < 4.0
        assert rep.chi_square >= 0.0

    @pytest.mark.parametrize("c", [1e-5, 1e-3, 0.01, 0.05])
    def test_tspb_passes_where_its_draws_crowd_an_integer_exponent(self, c):
        # TSPP(1, c) at small c puts most draws within 1e-12 of W = 2, whose
        # 10^W = 99.99... has digit 9; read as 2 - s rounded, they read 1
        assert verification_report(TSPB(c), 1_000_000, seed=20240811).passed()

    @pytest.mark.parametrize("model,n", [(PB(0.05, 3.0, 10 ** 18), 1_000_000),
                                         (PB(2.0, 1.0, 1000), 3_010_000)], ids=str)
    def test_a_pmf_missing_a_draw_is_refused(self, model, n):
        missing = pb_truncation_deficit(model.alpha, model.beta, model.m)
        assert n * missing >= 1
        with pytest.raises(ValueError, match=rf"^the pmf lacks mass {missing:.3g}, "
                                             rf"about {n * missing:.0f} of the {n} draws"):
            verification_report(model, n, seed=1)

    def test_a_pmf_missing_under_one_draw_is_checked(self):
        # PB(2, 1, 1000) lacks 3.3e-7 of its mass: 0.33 of 10^6 draws
        assert verification_report(PB(2.0, 1.0, 1000), 1_000_000, seed=1).passed()

    def test_cells_of_probability_zero_that_draw_nothing_have_z_zero(self):
        # TSPB(1e-300) puts all its mass on digits 1 and 9: 0/0 on the other
        # seven cells is no z-score
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = verification_report(TSPB(1e-300), 100_000, seed=20240811)
        assert rep.expected[1:8] == (0.0,) * 7 and rep.observed[1:8] == (0.0,) * 7
        assert rep.z_scores[1:8] == (0.0,) * 7
        assert rep.max_abs_z == max(abs(rep.z_scores[0]), abs(rep.z_scores[8]))
        assert rep.passed()

    def test_small_n_still_well_formed(self):
        rep = verification_report(Benford(), 1_000, seed=1)
        assert len(rep.observed) == 9
        assert abs(sum(rep.observed) - 1.0) < 1e-12


class TestGbmCharRoots:
    def test_golden_ratio_case(self):
        alpha, beta = gbm_char_roots(GbmParams(mu=0.0, sigma=math.sqrt(2.0), lam=1.0))
        assert alpha == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
        assert beta == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)

    def test_symmetric_case(self):
        # mu = sigma^2/2 kills the linear term: alpha = beta = sqrt(2 lam)/sigma
        sigma, lam = 0.8, 2.5
        alpha, beta = gbm_char_roots(GbmParams(mu=0.5 * sigma ** 2, sigma=sigma, lam=lam))
        assert alpha == pytest.approx(math.sqrt(2 * lam) / sigma, rel=1e-13)
        assert beta == pytest.approx(alpha, rel=1e-13)

    @pytest.mark.parametrize("mu,sigma,lam", [
        (0.0, 1.0, 1.0), (0.3, 0.5, 2.0), (-0.7, 2.0, 0.1), (5.0, 0.1, 3.0),
    ])
    def test_product_identity_and_residuals(self, mu, sigma, lam):
        alpha, beta = gbm_char_roots(GbmParams(mu=mu, sigma=sigma, lam=lam))
        assert alpha > 0 and beta > 0
        assert alpha * beta == pytest.approx(2 * lam / sigma ** 2, rel=1e-12)
        for z in (alpha, -beta):
            residual = 0.5 * sigma ** 2 * z ** 2 + (mu - 0.5 * sigma ** 2) * z - lam
            assert abs(residual) < 1e-10

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GbmParams(mu=0.0, sigma=0.0, lam=1.0)
        with pytest.raises(ValueError):
            GbmParams(mu=0.0, sigma=1.0, lam=-1.0)
        for mu in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="mu must be finite"):
                GbmParams(mu=mu, sigma=1.0, lam=1.0)
