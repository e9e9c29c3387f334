"""Property tests over generated valid laws: serialization, pmf routing,
the TSPB and PB masses, the batched PB formula, the exponent samplers, the
chi-square tail and the df convention; and over generated histograms:
their counts and CSV round trip, the JSON of their fits and their rebuild
from percentages."""
import json
import math
import warnings
from dataclasses import fields

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genbenford.distributions as dist

from genbenford import (
    PB,
    TSPB,
    Benford,
    DigitHistogram,
    FitResult,
    chi_square_sf,
    fit_pb,
    fit_tspb,
    histogram_from_percentages,
    model_to_dict,
    pb_truncation_deficit,
    pb_vector,
    pmf_vector,
    sample_dp,
    sample_tspp,
    tspb_vector,
)

positive = st.floats(min_value=0.05, max_value=50.0)
tspb_laws = st.builds(TSPB, c=positive)
pb_laws = st.builds(PB, alpha=positive, beta=positive, m=st.integers(1, 1000))
laws = st.one_of(st.just(Benford()), tspb_laws, pb_laws)
# log-uniform over alpha in [0.05, 1e9], beta in [1e-3, 1e3] and m in
# [1, 10^18]
wide_beta = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)
wide_pb_laws = st.builds(
    PB,
    alpha=st.floats(math.log(0.05), math.log(1e9)).map(math.exp),
    beta=wide_beta,
    m=st.floats(0.0, 18.0).map(lambda e: round(10.0 ** e)),
)

OWN_VECTOR = {
    Benford: lambda law: Benford().pmf(),
    TSPB: lambda law: tspb_vector(law.c),
    PB: lambda law: pb_vector(law.alpha, law.beta, law.m),
}

fast = settings(max_examples=25, deadline=None, database=None)


@fast
@given(laws)
def test_json_round_trip(law):
    # the JSON form is the law's tag and its fields, enough to rebuild it
    rec = json.loads(json.dumps(model_to_dict(law)))
    assert dist._LAWS[rec.pop("model")](**rec) == law


@fast
@given(laws)
def test_pmf_vector_is_the_laws_own_vector(law):
    assert np.array_equal(pmf_vector(law), OWN_VECTOR[type(law)](law))


@fast
@given(st.floats(0.0, 10.0, exclude_min=True))
def test_tspb_cells_are_a_pmf(c):
    cells = tspb_vector(c)
    assert np.all(cells >= 0)
    assert abs(math.fsum(cells) - 1.0) <= 1e-14


@fast
@given(laws)
@example(Benford())
@example(TSPB(2.0))
def test_pb_mass_plus_deficit_is_one(law):
    # every law's mass plus its deficit, None for the untruncated laws
    total = math.fsum(pmf_vector(law))
    deficit = law.deficit()
    if isinstance(law, PB):
        assert deficit == pb_truncation_deficit(law.alpha, law.beta, law.m)
    else:
        assert deficit is None
    assert abs(total + (deficit or 0.0) - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None, database=None)
@given(wide_pb_laws)
def test_pb_mass_plus_deficit_is_one_over_alpha_and_m(law):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid value anywhere
        cells = pmf_vector(law)
    assert np.all(cells >= 0)
    deficit = pb_truncation_deficit(law.alpha, law.beta, law.m)
    assert abs(math.fsum(cells) + deficit - 1.0) <= 1e-12


# alpha log-uniform in [0.05, 1e9], or exactly 1 (the integral's log limit)
wide_alpha = st.one_of(st.just(1.0), st.floats(math.log(0.05), math.log(1e9)).map(math.exp))


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(wide_alpha, wide_beta), min_size=1, max_size=12),
       st.floats(0.0, 18.0).map(lambda e: round(10.0 ** e)))
def test_batched_pb_formula_rows_are_the_scalar_formula(params, m):
    a, b = (np.array(v) for v in zip(*params))
    rows = dist._pb_probs(a, b, m)
    assert rows.shape == (len(params), 9)
    for row, (ak, bk) in zip(rows, params):
        np.testing.assert_allclose(row, dist._pb_probs(ak, bk, m), rtol=1e-14, atol=0)


# uniform variates, sorted, with both ends of [0, 1)
variates = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=50).map(
    lambda u: np.array(sorted(u + [0.0, 0.5, np.nextafter(1.0, 0.0)])))


def _inner(w, u):
    """The draws for u in [0.01, 0.99], where neither end of the support
    is within rounding of a draw at these shapes."""
    return w[(u >= 0.01) & (u <= 0.99)]


@fast
@given(st.floats(math.log(0.5), math.log(20.0)).map(math.exp), variates)
def test_tspp_sampler_is_monotone_in_u_and_stays_in_0_2(c, u):
    w = sample_tspp(c, u)
    assert np.all(w[1:] >= w[:-1])
    assert np.all((w >= 0) & (w <= 2))
    assert np.all((_inner(w, u) > 0) & (_inner(w, u) < 2))


@fast
@given(positive, positive, variates)
def test_dp_sampler_is_monotone_in_u_and_stays_positive(alpha, beta, u):
    with np.errstate(over="ignore"):  # u within 1e-16 of 1 may draw inf
        w = sample_dp(alpha, beta, u)
    assert np.all(w[1:] >= w[:-1])
    assert np.all(w >= 0)
    assert np.all((_inner(w, u) > 0) & np.isfinite(_inner(w, u)))


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(1, 60), st.floats(0.0, 2000.0))
def test_chi_square_sf_matches_incomplete_gamma_oracle(df, x):
    with mpmath.workdps(40):
        expected = float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2,
                                         mpmath.inf, regularized=True))
    if expected > 1e-300:
        assert abs(chi_square_sf(x, df) - expected) <= 1e-11 * expected


@settings(max_examples=3, deadline=None, database=None)
@given(st.lists(st.integers(0, 200), min_size=9, max_size=9).filter(lambda c: sum(c) > 0))
def test_fit_df_is_eight_minus_n_params(counts):
    hist = DigitHistogram.from_counts(counts)
    assert fit_tspb(hist).df == 8 - TSPB.n_params == 7
    assert fit_pb(hist, m=10).df == 8 - PB.n_params == 6


@settings(max_examples=3, deadline=None, database=None)
@given(st.lists(st.integers(0, 200), min_size=9, max_size=9).filter(lambda c: sum(c) > 0))
def test_fit_json_carries_every_field(counts):
    hist = DigitHistogram.from_counts(counts)
    for r in (fit_tspb(hist), fit_pb(hist, m=10)):
        record = r.to_json_dict()
        assert list(record) == [f.name for f in fields(FitResult)]
        assert record["model"] == model_to_dict(r.model)
        back = json.loads(json.dumps(record))
        assert back["model"] == model_to_dict(r.model)
        for f in fields(FitResult)[1:]:
            assert back[f.name] == getattr(r, f.name)
            assert type(back[f.name]) is type(getattr(r, f.name))


counts = st.lists(st.integers(0, 10 ** 6), min_size=9, max_size=9).filter(any)


@fast
@given(counts)
def test_histogram_is_its_counts_and_round_trips_through_csv(c):
    hist = DigitHistogram(c)
    assert hist.sample_size == sum(c)
    assert DigitHistogram.from_counts(c) == hist
    assert DigitHistogram.from_csv(",".join(map(str, c))) == hist


@fast
@given(counts)
def test_percentages_rebuild_their_counts(c):
    n = sum(c)
    assert list(histogram_from_percentages([100 * k / n for k in c], n).counts) == c
