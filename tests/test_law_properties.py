"""Property tests over generated valid laws: serialization, pmf routing,
the PB truncation identity and the df convention."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from genbenford import (
    PB,
    TSPB,
    Benford,
    DigitHistogram,
    benford_vector,
    fit_pb,
    fit_tspb,
    model_from_json,
    model_to_json,
    pb_truncation_deficit,
    pb_vector,
    pmf_vector,
    tspb_vector,
)

positive = st.floats(min_value=0.05, max_value=50.0)
tspb_laws = st.builds(TSPB, c=positive)
pb_laws = st.builds(PB, alpha=positive, beta=positive, m=st.integers(1, 1000))
laws = st.one_of(st.just(Benford()), tspb_laws, pb_laws)

OWN_VECTOR = {
    Benford: lambda law: benford_vector(),
    TSPB: lambda law: tspb_vector(law.c),
    PB: lambda law: pb_vector(law.alpha, law.beta, law.m),
}

fast = settings(max_examples=25, deadline=None, database=None)


@fast
@given(laws)
def test_json_round_trip(law):
    assert model_from_json(model_to_json(law)) == law


@fast
@given(laws)
def test_pmf_vector_is_the_laws_own_vector(law):
    assert np.array_equal(pmf_vector(law), OWN_VECTOR[type(law)](law))


@fast
@given(pb_laws)
def test_pb_mass_plus_deficit_is_one(law):
    total = math.fsum(pmf_vector(law))
    deficit = pb_truncation_deficit(law.alpha, law.beta, law.m)
    assert abs(total + deficit - 1.0) <= 1e-12


@settings(max_examples=3, deadline=None, database=None)
@given(st.lists(st.integers(0, 200), min_size=9, max_size=9).filter(lambda c: sum(c) > 0))
def test_fit_df_is_eight_minus_n_params(counts):
    hist = DigitHistogram.from_counts(counts)
    assert fit_tspb(hist).df == 8 - TSPB.n_params == 7
    assert fit_pb(hist, m=10).df == 8 - PB.n_params == 6
