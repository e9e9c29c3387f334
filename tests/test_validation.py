"""One check per input: TSPB and PB own the checks of c, alpha, beta and m.
Every function that takes those parameters, and the CLI's flags, accept
and reject exactly what the law's constructor does."""
import contextlib
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbenford import (
    PB,
    TSPB,
    adaptive_truncation,
    pb_truncation_deficit,
    sample_dp,
    sample_tspp,
    tspb_vector,
)
from genbenford.cli import main

# finite, zero, negative, nan, +-inf, huge and subnormal reals
reals = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 2.5, math.nan, math.inf, -math.inf,
                     sys.float_info.max, 5e-324, 1e-300, 1e9]),
)
_M_LIMIT = int(sys.float_info.max)
# integers around both ends of [1, 2**1024), whole and fractional floats
ms = st.one_of(
    st.integers(-3, 10 ** 6),
    st.sampled_from([_M_LIMIT - 1, _M_LIMIT, 2 ** 1024, 10 ** 400]),
    st.sampled_from([2.5, 3.0, 0.5, math.nan, math.inf, -math.inf, 1e300]),
)

checked = settings(max_examples=200, deadline=None, database=None)


def _error(f, *args):
    """The ValueError text f(*args) raises, or None when it returns.  Valid
    but extreme parameters may overflow a value; only the checks count."""
    try:
        with np.errstate(all="ignore"):
            f(*args)
    except ValueError as e:
        return str(e)
    return None


@checked
@given(reals)
def test_c_is_checked_by_tspb_alone(c):
    want = _error(TSPB, c)
    assert _error(tspb_vector, c) == want
    assert _error(sample_tspp, c, 0.5) == want


@checked
@given(reals, reals, ms)
def test_alpha_beta_m_are_checked_by_pb_alone(alpha, beta, m):
    assert _error(pb_truncation_deficit, alpha, beta, m) == _error(PB, alpha, beta, m)


@checked
@given(reals, reals)
def test_alpha_beta_are_checked_by_pb_alone(alpha, beta):
    want = _error(PB, alpha, beta)
    assert _error(sample_dp, alpha, beta, 0.5) == want
    got = _error(adaptive_truncation, alpha, beta)
    # a valid law may need more terms than the truncation allows
    assert got == want or (want is None and "terms" in got)


def _exit_code(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err, np.errstate(all="ignore"):
        code = main(list(argv))
    return code, err.getvalue()


@settings(max_examples=40, deadline=None, database=None)
@given(reals)
def test_c_flag_is_a_usage_error_exactly_when_tspb_rejects(c):
    code, err = _exit_code("pmf", "--model", "tspb", f"--c={c!r}")
    want = _error(TSPB, c)
    assert (code == 2) == (want is not None)
    if code == 2:
        assert err == f"error: --{want}\n"


@settings(max_examples=40, deadline=None, database=None)
@given(reals, reals,
       st.integers(-3, 10 ** 6) | st.sampled_from([_M_LIMIT - 1, 2 ** 1024]))
def test_pb_flags_are_usage_errors_exactly_when_pb_rejects(alpha, beta, m):
    code, err = _exit_code("pmf", "--model", "pb", f"--alpha={alpha!r}",
                           f"--beta={beta!r}", f"--m={m}")
    want = _error(PB, alpha, beta, m)
    assert (code == 2) == (want is not None)
    if code == 2:
        assert err == f"error: --{want}\n"


# each of these was accepted, or rejected for the wrong reason, while the
# helpers kept their own copies of the law's checks
def test_deficit_rejects_nan_alpha():
    with pytest.raises(ValueError, match="alpha must be a positive real"):
        pb_truncation_deficit(math.nan, 1.0, 10)


def test_deficit_rejects_fractional_m():
    with pytest.raises(ValueError, match="m must be an integer"):
        pb_truncation_deficit(1.0, 1.0, 2.5)


def test_adaptive_truncation_names_nan_alpha():
    with pytest.raises(ValueError, match="alpha must be a positive real, got nan"):
        adaptive_truncation(math.nan, 1.0)


def test_adaptive_truncation_names_infinite_beta():
    with pytest.raises(ValueError, match="beta must be a positive real, got inf"):
        adaptive_truncation(2.0, math.inf)


def test_adaptive_truncation_of_subnormal_law_needs_too_many_terms():
    # (alpha + beta) * tol underflows to 0, so the bound must not divide by it
    with pytest.raises(ValueError, match="terms"):
        adaptive_truncation(5e-324, 5e-324)
