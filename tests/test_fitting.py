import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import genbenford.fitting as fitting
from genbenford.distributions import _pb_mix, _series_differences, _tspb_probs
from genbenford import (
    PB,
    TSPB,
    Benford,
    DigitHistogram,
    adaptive_truncation,
    chi_square_sf,
    chi_square_stat,
    fit,
    fit_pb,
    fit_tspb,
    goodness_of_fit,
    histogram_from_percentages,
    load_survey,
    pb_vector,
)
from genbenford.cli import main
from oracles import _PB_POLISH, pb_dense_grid_min, tspb_dense_grid_min

MIXING = DigitHistogram.from_counts([175, 90, 71, 61, 47, 48, 50, 41, 35])
SQUARES = DigitHistogram.from_counts([21, 14, 12, 12, 9, 9, 8, 7, 8])
PENTAGONAL = DigitHistogram.from_counts([35, 12, 10, 8, 10, 6, 8, 5, 6])
PRIME_1000 = histogram_from_percentages(
    [14.9, 11.3, 11.3, 11.9, 10.1, 10.7, 10.7, 10.1, 8.9], 168)
# at m = 1000 the chi-square still falls like 1/alpha toward the alpha cap
CAP_VALLEY = DigitHistogram.from_counts([5541, 3172, 2333, 1843, 1464, 1208, 1002, 910, 851])


def _from_percentages(key):
    """A survey row's histogram rebuilt from its published percentages."""
    row = next(r for r in load_survey() if r.key == key)
    return histogram_from_percentages(row.percentages, row.n)


class TestChiSquareStat:
    def test_perfect_fit_is_zero(self):
        probs = np.full(9, 1.0 / 9.0)
        h = DigitHistogram.from_counts([100] * 9)
        assert chi_square_stat(h, probs) == 0.0

    def test_mixing_vs_benford(self):
        assert chi_square_stat(MIXING, Benford().pmf()) == pytest.approx(15.550, abs=0.05)

    def test_squares_vs_benford(self):
        assert chi_square_stat(SQUARES, Benford().pmf()) == pytest.approx(9.096, abs=0.01)

    def test_rejects_zero_probability_with_observations(self):
        probs = np.array([0.0] + [0.125] * 8)
        with pytest.raises(ValueError, match="digit 1"):
            chi_square_stat(MIXING, probs)

    def test_zero_probability_with_zero_count_is_ignored(self):
        h = DigitHistogram.from_counts([0, 10, 10, 10, 10, 10, 10, 10, 10])
        probs = np.array([0.0] + [0.125] * 8)
        assert chi_square_stat(h, probs) == 0.0

    def test_rejects_empty_histogram(self):
        h = DigitHistogram.from_counts([0] * 9)
        with pytest.raises(ValueError):
            chi_square_stat(h, Benford().pmf())

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            chi_square_stat(MIXING, np.full(8, 0.125))


class TestGoodnessOfFit:
    def test_mixing_benford(self):
        chi2, df, p = goodness_of_fit(MIXING, Benford(), 0)
        assert df == 8
        assert chi2 == pytest.approx(15.550, abs=0.05)
        assert p == pytest.approx(0.0493, abs=0.0005)

    def test_mixing_fitted_pb(self):
        fitted = fit_pb(MIXING, m=100)
        chi2, df, p = goodness_of_fit(MIXING, fitted.model, 2)
        assert df == 6
        assert p == pytest.approx(0.9355, abs=0.002)

    def test_zero_chi_square_gives_p_one(self):
        h = DigitHistogram.from_counts([10] * 9)
        chi2, df, p = goodness_of_fit(h, Benford(), 0)
        assert chi2 > 0  # benford is not uniform
        assert goodness_of_fit(h, Benford(), 1)[1] == 7
        assert chi_square_sf(0.0, 8) == 1.0

    def test_rejects_more_than_two_params(self):
        with pytest.raises(ValueError):
            goodness_of_fit(MIXING, Benford(), 3)


class TestFitTspb:
    def test_mixing(self):
        r = fit_tspb(MIXING)
        assert r.model.c == pytest.approx(2.540, abs=0.01)
        assert r.chi_square == pytest.approx(9.014, abs=0.02)
        assert r.df == 7
        assert r.p_value == pytest.approx(chi_square_sf(r.chi_square, 7), abs=0)
        assert r.converged
        assert r.evaluations > 40

    def test_pentagonal(self):
        r = fit_tspb(PENTAGONAL)
        assert r.chi_square == pytest.approx(2.127, abs=0.05)

    def test_benford_proportional_histogram_is_degenerate(self):
        # with n = 1e13 the rounded counts are proportional to the law to
        # ~5e-12 in chi-square, and c = 1 or 2 must reach that floor
        n = 10 ** 13
        counts = [round(n * p) for p in Benford().pmf()]
        h = DigitHistogram.from_counts(counts)
        r = fit_tspb(h)
        assert r.chi_square < 1e-10

    def test_never_worse_than_benford(self):
        for row in load_survey():
            h = histogram_from_percentages(row.percentages, row.n)
            r = fit_tspb(h)
            assert r.chi_square <= chi_square_stat(h, Benford().pmf()) + 1e-9

    def test_matches_dense_grid_oracle(self):
        _, oracle_val = tspb_dense_grid_min(MIXING.counts)
        r = fit_tspb(MIXING)
        assert abs(r.chi_square - oracle_val) < 1e-6

    def test_deterministic(self):
        assert fit_tspb(MIXING) == fit_tspb(MIXING)

    def test_rejects_empty_histogram(self):
        with pytest.raises(ValueError, match="sample_size >= 1"):
            fit_tspb(DigitHistogram.from_counts([0] * 9))

    # derandomized, so that the 25 draws are the same on every run
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(st.integers(1, 10 ** 5), st.floats(0.2, 9.5), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_never_worse_than_dense_grid(self, n, c, tspb_shaped, seed):
        # multinomial histograms drawn from a TSPB law or from a random pmf
        rng = np.random.default_rng(seed)
        probs = TSPB(c).pmf() if tspb_shaped else rng.dirichlet(np.ones(9))
        h = DigitHistogram.from_counts(rng.multinomial(n, probs / probs.sum()))
        _, grid_min = tspb_dense_grid_min(h.counts, step=1e-3)
        assert fit_tspb(h).chi_square <= grid_min + 1e-9

    def test_finds_a_basin_between_grid_points(self):
        # chi2 15.17 at c = 1.25 is below 15.26 at c = 1.5, yet the minimum
        # 7.88 lies near c = 1.63: a scan of the grid points alone misses it
        h = DigitHistogram.from_counts([26620, 16844, 12309, 9249, 7417, 6114, 5201, 4387, 3742])
        _, grid_min = tspb_dense_grid_min(h.counts, step=1e-3)
        assert fit_tspb(h).chi_square <= grid_min + 1e-9

    def test_evaluations_count_every_point_scored(self, monkeypatch):
        scored = []

        def counting(c):
            scored.append(len(c))
            return _tspb_probs(c)

        monkeypatch.setattr(fitting, "_tspb_probs", counting)
        assert fit_tspb(MIXING).evaluations == sum(scored)

    def test_batched_pmf_rows_match_the_law(self):
        # numpy squares for the scalar exponent 2.0 and takes a square root
        # for 0.5, where the batch calls pow.  A cell is half a signed sum of
        # four powers in [0, 1], so the rows agree to one ulp of a power
        # below 1, np.spacing(0.5), not of the smaller cell
        grid = np.arange(fitting._C_GRID_STEP, fitting._C_MAX + 1e-12, fitting._C_GRID_STEP)
        rows = _tspb_probs(grid[:, None])
        assert rows.shape == (len(grid), 9)
        for c, row in zip(grid, rows):
            np.testing.assert_allclose(row, TSPB(c).pmf(), rtol=0, atol=np.spacing(0.5))
        # the batched objective against chi_square_stat point by point
        chi2 = fitting._objective(MIXING, _tspb_probs)(grid[:, None])
        reference = [chi_square_stat(MIXING, TSPB(c).pmf()) for c in grid]
        np.testing.assert_allclose(chi2, reference, rtol=1e-13, atol=0)


class TestFitPb:
    def test_squares(self):
        r = fit_pb(SQUARES, m=100)
        assert r.chi_square == pytest.approx(0.362, abs=0.02)
        assert r.df == 6
        assert r.model.m == 100

    def test_prime_1000(self):
        r = fit_pb(PRIME_1000, m=100)
        assert r.chi_square == pytest.approx(0.333, abs=0.05)
        assert r.p_value == pytest.approx(0.999, abs=0.002)

    def test_mixing(self):
        r = fit_pb(MIXING, m=100)
        assert r.chi_square == pytest.approx(1.819, abs=0.05)
        assert r.p_value == pytest.approx(0.9355, abs=0.002)

    def test_never_worse_than_near_benford_member(self):
        for key in ("mixing", "fibonacci", "lucky", "partition"):
            h = _from_percentages(key)
            r = fit_pb(h, m=100)
            ceiling = chi_square_stat(h, pb_vector(1e6, 1.0, 100))
            assert r.chi_square <= ceiling + 1e-9

    def test_alpha_cap(self):
        h = _from_percentages("fibonacci")
        r = fit_pb(h, m=100)
        assert r.model.alpha <= 1e9

    @pytest.mark.parametrize("key", ["square-root", "idoneal", "fibonacci", "partition"])
    def test_survey_fits_at_the_cap_report_it_exactly(self, key, rows, histograms, fits):
        r = fits[key]["pb"]
        assert r.model.alpha == 1e9
        pmf = PB(1e9, r.model.beta, rows[key].series_m).pmf()
        assert r.chi_square == chi_square_stat(histograms[key], pmf)

    @pytest.mark.parametrize("law", ["benford", "tspb", "pb"])
    def test_survey_fits_report_the_law_they_scored(self, law, histograms, fits):
        # to the last bit: the chi-square of a fit is that of the law it reports
        for key, h in histograms.items():
            fit = fits[key][law]
            chi2, model = (fit[0], Benford()) if law == "benford" else (fit.chi_square, fit.model)
            assert chi2 == chi_square_stat(h, model.pmf()), key

    def test_reaches_the_cap_along_a_falling_valley(self):
        r = fit_pb(CAP_VALLEY, m=1000)
        assert r.model.alpha == 1e9
        assert r.chi_square <= pb_dense_grid_min(CAP_VALLEY.counts, 1000) + 1e-9

    def test_degenerate_fit_stops_at_a_zero_chi_square(self):
        # a work counter: a point on the profile's end beta -> 0 already
        # scores 0, so it is the one start, and one polish iteration finds
        # nothing lower; the fit scores 262 points
        r = fit_pb(DigitHistogram.from_counts([1, 0, 0, 0, 0, 0, 0, 0, 0]), m=5000)
        assert r.chi_square == 0.0
        assert r.evaluations <= 300

    def test_every_local_minimum_of_the_profile_is_a_start(self):
        # counts on digits 1 and 9 alone: the profile over log alpha has 7
        # local minima, each a start, then the limit's point
        hist = DigitHistogram.from_counts([5864, 0, 0, 0, 0, 0, 0, 0, 957])
        starts, _ = fitting._pb_profile(hist, 100)
        assert len(starts) == 8
        assert (starts[:-1, 1] < fitting._LOG_BETA_CAP).all()
        assert starts[-1, 1] == fitting._LOG_BETA_CAP

    @pytest.mark.parametrize("counts,m", [
        # held-out corpus seed 13: the 17-start multistart stopped at 44.47
        # (p = 6e-8) at alpha 1.53, beta 1.67; the minimum is 10.31 near
        # alpha 19, beta 1.1
        ([155946, 84821, 62000, 48440, 40591, 34373, 30328, 26630, 24274], 5000),
        # a valley that falls toward beta -> infinity past log beta 44
        ([32, 2, 1, 0, 0, 0, 0, 0, 0], 100),
        # a basin of the limit beta -> infinity at log alpha 1.72, narrower
        # than the profile's alpha spacing of 0.21: chi-square 5.336 there,
        # 5.49 at the grid alphas beside it
        ([17, 0, 2, 0, 0, 0, 0, 0, 0], 5000),
        # held-out corpus seed 43: the profile's minima on the near-Benford
        # plateau past log alpha 8 differ by rounding alone; a cap on the
        # starts that they fill leaves out the basin at log alpha 0.50
        # (3.113 against 3.128)
        ([16786, 1157, 591, 413, 312, 230, 190, 143, 135], 100),
        # held-out corpus seed 41: near log alpha 0 the grid's best log beta
        # is its edge, 12, while a basin near log beta 0.11, between two grid
        # points, holds the minimum (19.900 against 19.946 toward the edge)
        ([0, 6, 1, 0, 1, 0, 0, 0, 0], 100),
    ])
    def test_finds_the_basins_the_held_out_corpora_exposed(self, counts, m):
        fit = fit_pb(DigitHistogram.from_counts(counts), m)
        assert fit.chi_square <= pb_dense_grid_min(counts, m) + 1e-9

    @pytest.mark.xfail(strict=True, reason=(
        "held-out corpus seed 29: the minimum, 11.806 at log alpha 0.90, log beta 2.37, "
        "lies in a basin between the profile's alphas 0.78 and 0.99; the profile's best "
        "minimum, at log alpha 1.19, leads the polish into another basin, 11.822 at "
        "log alpha 1.16, log beta 1.87"))
    def test_finds_a_basin_between_profile_alphas(self):
        counts = [9, 0, 0, 2, 0, 0, 0, 2, 0]
        fit = fit_pb(DigitHistogram.from_counts(counts), 5000)
        assert fit.chi_square <= pb_dense_grid_min(counts, 5000) + 1e-9

    def test_evaluations_count_every_point_scored(self, monkeypatch):
        scored = []
        objective = fitting._objective

        def counting(hist, probs_of):
            f = objective(hist, probs_of)

            def counted(x):
                values = f(x)
                scored.append(values.size)
                return values
            return counted

        monkeypatch.setattr(fitting, "_objective", counting)
        assert fit_pb(MIXING, m=100).evaluations == sum(scored)

    @pytest.mark.parametrize("m", [100, 5000])
    def test_profile_scores_the_law_of_the_objective(self, m):
        # the grid's chi-squares, mixed from one series evaluation per alpha,
        # against fit_pb's own objective point by point
        alpha, beta = fitting._pb_params(fitting._PROFILE_LOG_ALPHAS, fitting._PROFILE_LOG_BETAS)
        series = _series_differences(alpha, m)
        grid = fitting._objective(
            MIXING, lambda b: _pb_mix(alpha[:, None], b, series[:, None]))(beta)
        points = np.stack(np.meshgrid(fitting._PROFILE_LOG_ALPHAS, fitting._PROFILE_LOG_BETAS,
                                      indexing="ij"), axis=-1).reshape(-1, 2)
        reference = fitting._pb_objective(MIXING, m)(points).reshape(grid.shape)
        np.testing.assert_allclose(grid, reference, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [1, 100, 5000, 10 ** 300], ids=["1", "100", "5000", "10**300"])
    def test_profile_table_is_the_per_block_series_and_pmfs(self, m):
        # bit for bit the series and pmfs of the profile's own blocks, the
        # series and the grid a block of alpha rows at a time and the two
        # ends in one call, so that caching the table moves no fit
        series, ends, grid = fitting._profile_table(m)
        alpha, beta = fitting._pb_params(fitting._PROFILE_LOG_ALPHAS, fitting._PROFILE_LOG_BETAS)
        for i in range(0, len(alpha), fitting._PROFILE_BLOCK):
            rows = slice(i, i + fitting._PROFILE_BLOCK)
            block = _series_differences(alpha[rows], m)
            assert np.array_equal(series[rows], block)
            assert np.array_equal(grid[rows], _pb_mix(alpha[rows, None], beta, block[:, None]))
        end_betas = fitting._pb_params(0.0, fitting._PROFILE_ENDS)[1]
        assert np.array_equal(ends, _pb_mix(alpha[:, None], end_betas, series[:, None]))
        assert (series.shape, ends.shape, grid.shape) == ((120, 9), (120, 2, 9), (120, 64, 9))
        assert not any(table.flags.writeable for table in (series, ends, grid))

    def test_a_cold_profile_table_fits_as_a_warm_one(self):
        fitting._profile_table(100)
        warm = fit_pb(MIXING, m=100)
        fitting._profile_table.cache_clear()
        assert fit_pb(MIXING, m=100) == warm
        assert fitting._profile_table.cache_info().misses == 1

    def test_polish_iteration_cap_is_not_convergence(self, monkeypatch):
        monkeypatch.setattr(fitting, "_NEWTON_MAXITER", 1)
        assert fit_pb(MIXING, m=100).converged is False

    def test_deterministic(self):
        assert fit_pb(MIXING, m=100) == fit_pb(MIXING, m=100)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            fit_pb(MIXING, m=0)

    @pytest.mark.parametrize("m", [2 ** 1024, 10 ** 400, 2.5])
    def test_rejects_m_that_pb_rejects(self, m):
        with pytest.raises(ValueError, match=r"m must be an integer in \[1, 2\*\*1024\)"):
            fit_pb(MIXING, m=m)

    def test_rejects_empty_histogram(self):
        with pytest.raises(ValueError):
            fit_pb(DigitHistogram.from_counts([0] * 9), m=100)

    # derandomized, so that the 6 draws are the same on every run
    @settings(max_examples=6, deadline=None, database=None, derandomize=True)
    @given(st.integers(25, 10 ** 6), st.floats(-3, 8), st.floats(-3, 6), st.booleans(),
           st.sampled_from([100, 1000, 5000]), st.integers(0, 2 ** 32 - 1))
    def test_never_worse_than_dense_grid(self, n, log_alpha, log_beta, pb_shaped, m, seed):
        # multinomial histograms drawn from a PB law or from a random pmf
        rng = np.random.default_rng(seed)
        probs = (PB(math.exp(log_alpha), math.exp(log_beta), m).pmf() if pb_shaped
                 else rng.dirichlet(np.ones(9)))
        h = DigitHistogram.from_counts(rng.multinomial(n, probs / probs.sum()))
        assert fit_pb(h, m).chi_square <= pb_dense_grid_min(h.counts, m) + 1e-9

    def test_survey_evaluations_stay_in_budget(self, fits):
        # a work counter, not a timing: the 19 survey fits score 201,729
        # points, 150,480 of them on the profile's grid and its two ends, so a
        # denser grid or more polish starts fails here
        assert sum(f["pb"].evaluations for f in fits.values()) <= 205_000

    def test_survey_objective_calls_stay_in_budget(self, monkeypatch, rows, histograms):
        # a work counter, not a timing: a call costs a fixed overhead beyond
        # its points, and the 19 survey fits make 783 calls
        calls = []
        objective = fitting._objective

        def counting(hist, probs_of):
            f = objective(hist, probs_of)

            def counted(x):
                calls.append(len(x))
                return f(x)
            return counted

        monkeypatch.setattr(fitting, "_objective", counting)
        for key, row in rows.items():
            fit_pb(histograms[key], m=row.series_m)
        assert len(calls) <= 820


class TestFit:
    """fit(hist, law, m), the one map from a law to its fitter."""

    def test_each_law_is_its_fitter(self):
        chi2, df, p = goodness_of_fit(MIXING, Benford(), 0)
        assert fit(MIXING, Benford) == fitting.FitResult(Benford(), chi2, df, p, True, 1)
        assert fit(MIXING, TSPB) == fit_tspb(MIXING)
        assert fit(MIXING, PB, 100) == fit_pb(MIXING, m=100)
        assert fit(MIXING, PB) == fit_pb(MIXING)

    @pytest.mark.parametrize("hist,refit", [(PENTAGONAL, True), (MIXING, False)],
                             ids=["pentagonal", "mixing"])
    def test_adaptive_is_the_clis(self, capsys, hist, refit):
        # a pilot at m = 1000, refitted only where its adaptive m lies above 1000
        r = fit(hist, PB, "adaptive")
        pilot = fit_pb(hist)
        m = adaptive_truncation(pilot.model.alpha, pilot.model.beta)
        assert (m > 1000) == refit
        assert r == (fit_pb(hist, m=m) if refit else pilot)
        code = main(["fit", "--counts", ",".join(map(str, hist.counts)), "--model", "pb",
                     "--m", "adaptive", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {**r.to_json_dict(), "source": "counts"}

    @pytest.mark.parametrize("m", [5, "adaptive", "survey", 2 ** 1024, None])
    @pytest.mark.parametrize("law", [Benford, TSPB])
    def test_m_is_ignored_by_a_law_without_m(self, law, m):
        assert fit(MIXING, law, m) == fit(MIXING, law)

    @pytest.mark.parametrize("law", [int, None, "pb", PB(1.0, 1.0), Benford()], ids=repr)
    def test_a_non_law_is_a_type_error(self, law):
        with pytest.raises(TypeError, match="not a digit law"):
            fit(MIXING, law)


class TestFitResultSerialization:
    def test_json(self):
        r = fit_tspb(MIXING)
        obj = r.to_json_dict()
        assert obj["model"]["model"] == "tspb"
        assert obj["df"] == 7
        assert math.isclose(obj["chi_square"], r.chi_square)


def _scipy_runs(f, starts, options):
    """scipy's Nelder-Mead from each start on the batched objective f,
    called one point at a time."""
    def scalar(x):
        return float(f(x[None, :])[0])
    return [optimize.minimize(scalar, x, method="Nelder-Mead", options=options)
            for x in starts]


class TestPolishMatchesScipy:
    """fit_pb's Newton polish against scipy's Nelder-Mead with the oracle's
    options (_PB_POLISH), start by start: from each start that fit_pb
    polishes, _pb_profile's local minima and its limit, the polish ends no
    higher than scipy.  The histograms span the basins of the survey rows,
    the 1e300 sentinel, a one-count histogram and a valley falling to the
    alpha cap."""

    @pytest.mark.parametrize("hist,m", [
        (_from_percentages("square"), 100),
        (_from_percentages("mixing"), 100),
        (_from_percentages("catalan"), 5000),
        (DigitHistogram.from_counts([0, 0, 5, 0, 3, 0, 0, 1, 0]), 100),  # the 1e300 sentinel
        (DigitHistogram.from_counts([1, 0, 0, 0, 0, 0, 0, 0, 0]), 100),
        (CAP_VALLEY, 1000),
        pytest.param(DigitHistogram.from_counts([5864, 0, 0, 0, 0, 0, 0, 0, 957]), 100,
                     marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                         "from the start (4.7259, 6.5386) the polish stops at 7.555e-10 "
                         "with converged True, where scipy reaches 2.2e-30: it stops when "
                         "no trial point is lower, not on a stationarity test "
                         "(ROADMAP item 4)"))),
    ])
    def test_pb_stages_match_scipy(self, hist, m):
        f = fitting._pb_objective(hist, m)
        starts, _ = fitting._pb_profile(hist, m)
        for start, r in zip(starts, _scipy_runs(f, starts, _PB_POLISH)):
            assert fitting._newton_polish(f, start)[1] <= r.fun * (1 + 1e-12) + 1e-12

    def test_non_finite_chi_square_is_the_sentinel(self):
        f = fitting._pb_objective(DigitHistogram.from_counts([0, 0, 5, 0, 3, 0, 0, 1, 0]), 100)
        assert f(np.array([[20.0, 700.0], [0.0, 0.0]]))[0] == 1e300
