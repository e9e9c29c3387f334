"""Digit laws: Benford, two-sided power Benford (TSPB), Pareto Benford (PB).

All three are probability mass functions on the first digit d = 1..9, with
log meaning log10 throughout:

  Benford:   P(d) = log(1 + 1/d)

  TSPB(c):   P(d) = ((log(1+d))^c - (log d)^c
                     - (1 - log(1+d))^c + (1 - log d)^c) / 2
             Reduces to Benford at c = 1 and c = 2.

  PB(a, b):  P(d) = a/(a+b) * ((log(1+d))^b - (log d)^b)
                  + b/(a+b) * sum_{k>=1} ((k + log d)^-a - (k + log(1+d))^-a)
             Approaches Benford as b -> 1, a -> infinity.

The PB series is truncated at an index m, 1 <= m < 2**1024.  The
truncation leaves a total mass deficit of exactly b/(a+b) * (m+1)^-a,
which is reported, never redistributed over the digits: each law's
`deficit()` is its missing mass, None for the untruncated Benford and TSPB.

The truncated series is evaluated in time that does not grow with m: its
first 12 terms are summed directly and the rest by Euler-Maclaurin
summation (DLMF 2.10.1) with the Bernoulli corrections B2..B10, every
term differenced between adjacent digits inside the term.  It agrees with
the Hurwitz zeta form zeta(a, 1 + log d) - zeta(a, m + 1 + log d)
(DLMF 25.11) to 1e-12 relative per digit for a in [0.05, 1e9] and every
m, which is float64 precision for the pmf.

Each law's __post_init__ is the one check of its parameters: the functions
here, the samplers and the CLI construct the law to check theirs.  Its
`exponent_branches()` is the inverse CDF of the W whose 10^W has the law:
W is lower(u) for u < split and upper(u) past it, each an array function
of the uniforms that returns their draws as a new array: one power per draw.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import ClassVar, Union, get_args

import numpy as np

__all__ = [
    "Benford",
    "TSPB",
    "PB",
    "ModelParams",
    "pmf_vector",
    "tspb_vector",
    "pb_vector",
    "adaptive_truncation",
    "chi_square_sf",
    "model_to_dict",
]

# log10(1), ..., log10(10)
_L10 = np.log10(np.arange(1, 11, dtype=float))

# PB series: _HEAD terms are summed directly; each end of the
# Euler-Maclaurin tail has one row per exponent offset: half the end term
# (0), the odd derivatives f', f''', ..., f^(9) (1, 3, ..., 9) and the
# integral (-1)
_HEAD = 12
_TAIL_OFFSETS = (0.0, 1.0, 3.0, 5.0, 7.0, 9.0, -1.0)
_SERIES_ALPHA_CAP = 1e30
# B_2j / (2j)! of the Euler-Maclaurin corrections on the odd derivatives
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)
# the row weights are a fixed linear map of these powers of u = alpha - 1
_POWERS = np.array([*range(10), -1], dtype=float)
_EPS = sys.float_info.epsilon
_HALF_MAX = sys.float_info.max / 2

# PB's m must keep m + 1 within the float64 range
_M_LIMIT = int(sys.float_info.max)

_TRUNCATION_LIMIT = 10 ** 18


# ---------------------------------------------------------------------------
# model parameters


@dataclass(frozen=True)
class Benford:
    """Benford's law; no parameters."""

    tag: ClassVar[str] = "benford"
    n_params: ClassVar[int] = 0

    def pmf(self) -> np.ndarray:
        return _L10[1:] - _L10[:9]

    def deficit(self) -> None:
        """None: the law is not truncated."""

    def exponent_branches(self) -> None:
        """None: W is the uniform U itself."""


@dataclass(frozen=True)
class TSPB:
    """Two-sided power Benford law with shape c > 0."""

    c: float = field(metadata={"help": "TSPB shape parameter"})

    tag: ClassVar[str] = "tspb"
    n_params: ClassVar[int] = 1

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be a positive real, got {self.c}")

    def pmf(self) -> np.ndarray:
        return _tspb_probs(self.c)

    def deficit(self) -> None:
        """None: the law is not truncated."""

    def exponent_branches(self):
        """TSPP(1, c): W = (2u)^(1/c) up to the mode, 1 at u = 1/2; past it
        W - 2 = -max(s, 5e-324), s = (2(1-u))^(1/c) > 0 for u < 1, whose
        fraction 1 - s keeps the tiny s that 2 - s would round to 2."""
        c = self.c
        return (0.5, lambda u: (2.0 * u) ** (1.0 / c),
                lambda u: -np.maximum((2.0 * (1.0 - u)) ** (1.0 / c), 5e-324))


@dataclass(frozen=True)
class PB:
    """Pareto Benford law with tail exponent alpha > 0, lower exponent
    beta > 0, and series truncation index 1 <= m < 2**1024."""

    alpha: float = field(metadata={"help": "PB tail exponent"})
    beta: float = field(metadata={"help": "PB lower exponent"})
    m: int = 1000

    tag: ClassVar[str] = "pb"
    n_params: ClassVar[int] = 2

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a positive real, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be a positive real, got {self.beta}")
        if not (1 <= self.m < _M_LIMIT and int(self.m) == self.m):
            raise ValueError(f"m must be an integer in [1, 2**1024), got {self.m}")
        object.__setattr__(self, "m", int(self.m))

    def pmf(self) -> np.ndarray:
        return _pb_probs(self.alpha, self.beta, self.m)

    def deficit(self) -> float:
        """The mass lost to truncating the series at m: beta/(alpha+beta) * (m+1)^-alpha."""
        return self.beta / (self.alpha + self.beta) * float(self.m + 1) ** (-self.alpha)

    def exponent_branches(self):
        """DP(1, alpha, beta): W = ((1 + beta/alpha) u)^(1/beta) below the
        split alpha/(alpha + beta), ((1 + alpha/beta)(1 - u))^(-1/alpha)
        from it on."""
        alpha, beta = self.alpha, self.beta
        # 1 + beta/alpha, not (alpha + beta)/alpha: the sum may overflow; the
        # upper base is at least 1 - u >= 2^-53 > 0 for u < 1
        return (1.0 / (1.0 + beta / alpha),
                lambda u: (u * (1.0 + beta / alpha)) ** (1.0 / beta),
                lambda u: ((1.0 - u) * (1.0 + alpha / beta)) ** (-1.0 / alpha))


ModelParams = Union[Benford, TSPB, PB]

# JSON tag -> law; the dataclass fields are the serialized parameters
_LAW_TYPES = get_args(ModelParams)
_LAWS = {law.tag: law for law in _LAW_TYPES}


def _check_model(model) -> ModelParams:
    if not isinstance(model, _LAW_TYPES):
        raise TypeError(f"not a digit-law model: {model!r}")
    return model


def model_to_dict(model: ModelParams) -> dict:
    return {"model": _check_model(model).tag, **asdict(model)}


# ---------------------------------------------------------------------------
# pmf evaluation


def _tspb_probs(c) -> np.ndarray:
    """Unvalidated TSPB pmf, shared by TSPB.pmf and the fitter's objective:
    c is a float, or an array of shape (K, 1) for a (K, 9) result."""
    p, q = _L10 ** c, (1 - _L10) ** c
    return 0.5 * (p[..., 1:] - p[..., :9] - q[..., 1:] + q[..., :9])


# kept for bench/spans.py, which times it by name
def tspb_vector(c: float) -> np.ndarray:
    return TSPB(c).pmf()


@lru_cache(maxsize=8)
def _series_table(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The part of _series_differences that depends on m alone: for each
    row's t, the (2, rows, 9) table of -log(t + x_d) and
    log(t + x_d) - log(t + x_{d+1}), the (rows, 1) exponent offsets, and
    the (11, rows) matrix that takes the powers _POWERS of u = alpha - 1 to
    the row weights: -1 on the head rows; at t = 13 and at t = m, -1/2 on the
    end terms, -/+ B_2j/(2j)! (alpha)_(2j-1) on f^(2j-1), -/+ 1/(alpha - 1) on the integral."""
    head = min(m, _HEAD)
    ts = list(range(1, head + 1))
    offsets = [0.0] * head
    weights = np.zeros((len(_POWERS), head))
    weights[0] = -1.0
    if m > _HEAD:
        ts += [_HEAD + 1] * len(_TAIL_OFFSETS) + [m] * len(_TAIL_OFFSETS)
        offsets += _TAIL_OFFSETS * 2
        end = np.zeros((len(_POWERS), len(_TAIL_OFFSETS)))  # the rows at t = m
        for j, (b, k) in enumerate(zip(_BERNOULLI, _TAIL_OFFSETS[1:-1]), 1):
            # (alpha)_k = (u + 1)(u + 2)...(u + k)
            end[:int(k) + 1, j] = b * np.poly(-np.arange(1.0, k + 1))[::-1]
        end[-1, -1] = 1.0  # 1/(alpha - 1) on the integral
        weights = np.hstack([weights, -end, end])
        weights[0, [head, head + len(_TAIL_OFFSETS)]] = -0.5  # half the end terms
    t = np.array(ts, dtype=float)[:, None]
    # log1p(x/t) keeps x_d at any t, where t + x_d would round to t
    lo, hi = np.log1p(_L10[:9] / t), np.log1p(_L10[1:] / t)
    return np.stack([-(np.log(t) + lo), lo - hi]), np.array(offsets)[:, None], weights


def _series_differences(alpha, m: int) -> np.ndarray:
    """S_d = sum_{k=1..m} ((k + x_d)^-alpha - (k + x_{d+1})^-alpha) for
    d = 1..9, x_d = log10 d, on a last axis of length 9: alpha is a float,
    or an array of shape (K,) for a (K, 9) result whose row k is the
    result for alpha[k].

    One evaluation whose cost does not depend on m.  The first min(m, 12)
    terms are summed directly.  For m > 12 the terms k = 13..m are summed
    by Euler-Maclaurin (DLMF 2.10.1): the integral from 13 to m, half the
    end terms at 13 and m, and the Bernoulli corrections B2..B10 on the odd
    derivatives at both ends.  Each term, derivative and integral is
    differenced between digits d and d+1 inside itself, as
    (t + x_d)^-e * -expm1(-e * Delta) with
    Delta = log(t + x_{d+1}) - log(t + x_d) = log1p(x_{d+1}/t) - log1p(x_d/t),
    so no partial sum grows like m^(1 - alpha) and no exp overflows.  The
    12 head rows and 7 rows per tail end go through one exp/expm1 pass and
    one weight vector; the per-m log table is cached.  alpha == 1 is
    evaluated at the next float, 1 + 2^-52, where the integral's weight
    1/(alpha - 1) is finite; that moves S by about 2^-52 log(m) relative,
    as much as alpha's own last bit does.

    Matches the differenced Hurwitz zeta form
    zeta(alpha, 1 + x_d) - zeta(alpha, m + 1 + x_d) (DLMF 25.11) to 1e-12
    relative per digit for alpha in [0.05, 1e9] and every m that PB accepts
    (tests/test_distributions.py checks it at 40 digits; the worst error
    seen over that range is 1.1e-13).
    """
    table, offsets, weights = _series_table(m)
    # past the cap every power but 1^-alpha is 0: it moves no bit, and keeps products finite
    alpha = np.minimum(alpha, _SERIES_ALPHA_CAP)
    alpha = alpha + (alpha == 1) * _EPS
    z = (np.asarray(alpha)[..., None, None, None] + offsets) * table
    rows, d = z[..., 0, :, :], z[..., 1, :, :]  # in place, to keep a batch small
    np.exp(rows, out=rows)
    rows *= np.expm1(d, out=d)  # (t + x_{d+1})^-e - (t + x_d)^-e
    return ((np.power.outer(alpha - 1, _POWERS) @ weights)[..., None, :] @ rows)[..., 0, :]


def _pb_probs(a, b, m: int) -> np.ndarray:
    """Unvalidated PB pmf, shared by PB.pmf and the fitter's objective:
    a and b are floats, or arrays of shape (K,) for a (K, 9) result."""
    return _pb_mix(a, b, _series_differences(a, m))


def _pb_mix(a, b, s) -> np.ndarray:
    """The PB pmf of _pb_probs from s, the _series_differences of a: a and b
    broadcast together to a shape whose pmfs lie on a new last axis of 9,
    and s broadcasts to that."""
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    p = _L10 ** b
    if np.maximum(a, b).max() > _HALF_MAX:  # halve both weights where a + b overflows
        over = a / 2 + b / 2 > _HALF_MAX  # exactly there; the scaling is exact
        a, b = np.where(over, a / 2, a), np.where(over, b / 2, b)
    return (a * (p[..., 1:] - p[..., :9]) + b * s) / (a + b)


# kept for bench/workloads.py, which evaluates the series at huge m with it
def pb_vector(alpha: float, beta: float, m: int = 1000) -> np.ndarray:
    return PB(alpha, beta, m).pmf()


def adaptive_truncation(alpha: float, beta: float) -> int:
    """Smallest truncation index whose mass deficit drops below 1e-10."""
    PB(alpha, beta)  # the law's own check of alpha and beta
    tol = 1e-10
    # deficit < tol  <=>  m + 1 > (beta / (alpha+beta) / tol)^(1/alpha)
    try:
        bound = (beta / (alpha + beta) / tol) ** (1.0 / alpha)
    except OverflowError:
        bound = math.inf
    if not bound < _TRUNCATION_LIMIT:
        raise ValueError(
            f"adaptive truncation for alpha={alpha}, beta={beta} needs more "
            f"than {_TRUNCATION_LIMIT:.0e} terms"
        )
    m = max(1, math.ceil(bound) - 1)
    while PB(alpha, beta, m).deficit() >= tol:
        m += 1
    while m > 1 and PB(alpha, beta, m - 1).deficit() < tol:
        m -= 1
    return m


# kept for bench/workloads.py, which evaluates the laws with it
def pmf_vector(model: ModelParams) -> np.ndarray:
    """Evaluate a digit law at d = 1..9."""
    return _check_model(model).pmf()


# ---------------------------------------------------------------------------
# chi-square tail


def chi_square_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of a chi-square variable with df degrees of
    freedom: the regularized upper incomplete gamma function Q(df/2, y),
    y = x/2, in closed form (DLMF 8.4.10, 8.4.11 and the recurrence 8.8.6):
    e^-y sum_{j<df/2} y^j / j! for even df, and
    erfc(sqrt(y)) + e^-y sum_{j<(df-1)/2} y^(j+1/2) / Gamma(j + 3/2) for odd
    df.  Every term is a positive exp of its own log, so none overflows,
    and only the terms within 40 sqrt(y) + 40 of the peak at j = y are
    summed (the rest add less than e^-800 of the sum), so the cost stays
    bounded for any df.  Within 1e-11 relative of a 40-digit oracle for
    x <= 2000 and df <= 60 (where the value is above 1e-300); the error of
    a term's log grows like y log(y) * 1e-16 beyond.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"x must be a finite non-negative real, got {x}")
    if int(df) != df or df < 1:
        raise ValueError(f"df must be an integer >= 1, got {df}")
    y = x / 2.0
    if y == 0:
        return 1.0
    log_y = math.log(y)
    half = 0.5 if df % 2 else 0.0
    spread = 40 * math.sqrt(y) + 40
    js = range(max(0, math.floor(y - spread)), min(int(df) // 2, math.ceil(y + spread)))
    terms = [math.exp(-y + (j + half) * log_y - math.lgamma(j + half + 1)) for j in js]
    # the rounding of the terms may lift a tail of 1 past 1
    return min(1.0, math.fsum(terms + ([math.erfc(math.sqrt(y))] if half else [])))
