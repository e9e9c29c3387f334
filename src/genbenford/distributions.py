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
which is reported, never redistributed over the digits.

The truncated series is evaluated in time that does not grow with m: its
first 12 terms are summed directly and the rest by Euler-Maclaurin
summation (DLMF 2.10.1) with the Bernoulli corrections B2..B10, every
term differenced between adjacent digits inside the term.  It agrees with
the Hurwitz zeta form zeta(a, 1 + log d) - zeta(a, m + 1 + log d)
(DLMF 25.11) to 1e-12 relative per digit for a in [0.05, 1e9] and every
m, which is float64 precision for the pmf.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from functools import lru_cache
from typing import ClassVar, Union, get_args

import numpy as np
from scipy import special

__all__ = [
    "Benford",
    "TSPB",
    "PB",
    "ModelParams",
    "benford_pmf",
    "tspb_pmf",
    "pb_pmf",
    "pmf_vector",
    "benford_vector",
    "tspb_vector",
    "pb_vector",
    "pb_truncation_deficit",
    "adaptive_truncation",
    "chi_square_sf",
    "model_to_dict",
    "model_from_dict",
    "model_to_json",
    "model_from_json",
]

# log10(1), ..., log10(10)
_L10 = np.log10(np.arange(1, 11, dtype=float))

# PB series: _HEAD terms are summed directly; each end of the
# Euler-Maclaurin tail has one row per exponent offset: half the end term
# (0), the odd derivatives f', f''', ..., f^(9) (1, 3, ..., 9) and the
# integral (-1)
_HEAD = 12
_TAIL_OFFSETS = (0.0, 1.0, 3.0, 5.0, 7.0, 9.0, -1.0)
_TAIL_ALPHA_CAP = 1e30

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
        return benford_vector()


@dataclass(frozen=True)
class TSPB:
    """Two-sided power Benford law with shape c > 0."""

    c: float

    tag: ClassVar[str] = "tspb"
    n_params: ClassVar[int] = 1

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be a positive real, got {self.c}")

    def pmf(self) -> np.ndarray:
        return tspb_vector(self.c)


@dataclass(frozen=True)
class PB:
    """Pareto Benford law with tail exponent alpha > 0, lower exponent
    beta > 0, and series truncation index 1 <= m < 2**1024."""

    alpha: float
    beta: float
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
        return pb_vector(self.alpha, self.beta, self.m)


ModelParams = Union[Benford, TSPB, PB]

# JSON tag -> law; the dataclass fields are the serialized parameters
_LAW_TYPES = get_args(ModelParams)
_LAWS = {law.tag: law for law in _LAW_TYPES}
_COERCE = {"float": float, "int": int}  # field annotation -> JSON value coercion


def _check_model(model) -> ModelParams:
    if not isinstance(model, _LAW_TYPES):
        raise TypeError(f"not a digit-law model: {model!r}")
    return model


def model_to_dict(model: ModelParams) -> dict:
    return {"model": _check_model(model).tag, **asdict(model)}


def model_from_dict(obj: dict) -> ModelParams:
    law = _LAWS.get(obj.get("model"))
    if law is None:
        raise ValueError(f"unknown model tag: {obj.get('model')!r}")
    return law(**{f.name: _COERCE[f.type](obj[f.name]) for f in fields(law)
                  if f.name in obj or f.default is MISSING})


def model_to_json(model: ModelParams) -> str:
    return json.dumps(model_to_dict(model))


def model_from_json(text: str) -> ModelParams:
    return model_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# pmf evaluation


def _check_digit(d) -> int:
    di = int(d)
    if di != d or not 1 <= di <= 9:
        raise ValueError(f"digit out of range 1..9: {d!r}")
    return di


def benford_vector() -> np.ndarray:
    return _L10[1:] - _L10[:9]


def benford_pmf(d: int) -> float:
    """P(first digit = d) = log10(1 + 1/d)."""
    d = _check_digit(d)
    return math.log10(1.0 + 1.0 / d)


def tspb_vector(c: float) -> np.ndarray:
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be a positive real, got {c}")
    lo, hi = _L10[:9], _L10[1:]
    return 0.5 * (hi ** c - lo ** c - (1.0 - hi) ** c + (1.0 - lo) ** c)


def tspb_pmf(d: int, c: float) -> float:
    d = _check_digit(d)
    return float(tspb_vector(c)[d - 1])


@lru_cache(maxsize=8)
def _series_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The part of _series_differences that depends on m alone: for each
    row's t, the (2, rows, 9) table of -log(t + x_d) and
    log(t + x_d) - log(t + x_{d+1}), and the (rows, 1) exponent offsets."""
    ts = list(range(1, min(m, _HEAD) + 1))
    offsets = [0.0] * len(ts)
    if m > _HEAD:
        ts += [_HEAD + 1] * len(_TAIL_OFFSETS) + [m] * len(_TAIL_OFFSETS)
        offsets += _TAIL_OFFSETS * 2
    t = np.array(ts, dtype=float)[:, None]
    # log1p(x/t) keeps x_d at any t, where t + x_d would round to t
    lo, hi = np.log1p(_L10[:9] / t), np.log1p(_L10[1:] / t)
    return np.stack([-(np.log(t) + lo), lo - hi]), np.array(offsets)[:, None]


def _tail_weights(alpha: float) -> tuple:
    # every tail row is exactly 0 long before the cap (13^-300 underflows);
    # capping alpha here only keeps 0 * weight from becoming nan
    a = min(alpha, _TAIL_ALPHA_CAP)
    r3 = a * (a + 1) * (a + 2)  # rising factorials (a)_3 .. (a)_9
    r5 = r3 * (a + 3) * (a + 4)
    r7 = r5 * (a + 5) * (a + 6)
    r9 = r7 * (a + 7) * (a + 8)
    # B_2j / (2j)! * (a)_(2j-1) on the odd derivatives, 1/(a - 1) on the
    # integral (its alpha == 1 limit is added apart)
    q = (a / 12, -r3 / 720, r5 / 30240, -r7 / 1209600, r9 / 47900160,
         1 / (alpha - 1) if alpha != 1 else 0.0)
    return (-0.5, *[-v for v in q], -0.5, *q)  # rows at t = 13, then t = m


def _series_differences(alpha: float, m: int) -> np.ndarray:
    """S_d = sum_{k=1..m} ((k + x_d)^-alpha - (k + x_{d+1})^-alpha) for
    d = 1..9, x_d = log10 d, as a length-9 array.

    One evaluation whose cost does not depend on m.  The first min(m, 12)
    terms are summed directly.  For m > 12 the terms k = 13..m are summed
    by Euler-Maclaurin (DLMF 2.10.1): the integral from 13 to m, half the
    end terms at 13 and m, and the Bernoulli corrections B2..B10 on the odd
    derivatives at both ends.  Each term, derivative and integral is
    differenced between digits d and d+1 inside itself, as
    (t + x_d)^-e * -expm1(-e * Delta) with
    Delta = log(t + x_{d+1}) - log(t + x_d) = log1p(x_{d+1}/t) - log1p(x_d/t),
    so no partial sum grows like m^(1 - alpha) and no exp overflows; at
    alpha == 1 the integral is its log limit Delta(13) - Delta(m).  The 12
    head rows and 7 rows per tail end go through one exp/expm1 pass and
    one weight vector; the per-m log table is cached.

    Matches the differenced Hurwitz zeta form
    zeta(alpha, 1 + x_d) - zeta(alpha, m + 1 + x_d) (DLMF 25.11) to 1e-12
    relative per digit for alpha in [0.05, 1e9] and every m that PB accepts
    (tests/test_distributions.py checks it at 40 digits; the worst error
    seen over that range is 1.1e-13).
    """
    table, offsets = _series_table(m)
    z = (alpha + offsets) * table
    rows = np.exp(z[0]) * np.expm1(z[1])  # (t + x_{d+1})^-e - (t + x_d)^-e
    tail = m > _HEAD
    weights = (-1.0,) * min(m, _HEAD) + (_tail_weights(alpha) if tail else ())
    out = np.array(weights) @ rows
    if tail and alpha == 1:
        out += table[1, -1] - table[1, _HEAD + len(_TAIL_OFFSETS) - 1]
    return out


def _pb_probs(a: float, b: float, m: int) -> np.ndarray:
    # unvalidated PB pmf, shared by pb_vector and the fitter's objective
    lo, hi = _L10[:9], _L10[1:]
    return (a * (hi ** b - lo ** b) + b * _series_differences(a, m)) / (a + b)


def pb_vector(alpha: float, beta: float, m: int = 1000) -> np.ndarray:
    model = PB(alpha, beta, m)  # validates
    return _pb_probs(model.alpha, model.beta, model.m)


def pb_pmf(d: int, alpha: float, beta: float, m: int = 1000) -> float:
    d = _check_digit(d)
    return float(pb_vector(alpha, beta, m)[d - 1])


def pb_truncation_deficit(alpha: float, beta: float, m: int) -> float:
    """Total mass lost to truncating the PB series at m:
    beta/(alpha+beta) * (m+1)^-alpha."""
    if alpha <= 0 or beta <= 0 or not 1 <= m < _M_LIMIT:
        raise ValueError("alpha, beta must be > 0 and 1 <= m < 2**1024")
    return beta / (alpha + beta) * float(m + 1) ** (-alpha)


def adaptive_truncation(alpha: float, beta: float, tol: float = 1e-10) -> int:
    """Smallest truncation index whose mass deficit drops below tol."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha, beta must be > 0")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    # deficit < tol  <=>  m + 1 > (beta / ((alpha+beta) tol))^(1/alpha)
    try:
        bound = (beta / ((alpha + beta) * tol)) ** (1.0 / alpha)
    except OverflowError:
        bound = math.inf
    if not bound < _TRUNCATION_LIMIT:
        raise ValueError(
            f"adaptive truncation for alpha={alpha}, beta={beta} needs more "
            f"than {_TRUNCATION_LIMIT:.0e} terms"
        )
    m = max(1, math.ceil(bound) - 1)
    while pb_truncation_deficit(alpha, beta, m) >= tol:
        m += 1
    while m > 1 and pb_truncation_deficit(alpha, beta, m - 1) < tol:
        m -= 1
    return m


def pmf_vector(model: ModelParams) -> np.ndarray:
    """Evaluate a digit law at d = 1..9."""
    return _check_model(model).pmf()


# ---------------------------------------------------------------------------
# chi-square tail


def chi_square_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of a chi-square variable with df degrees of
    freedom, via the regularized upper incomplete gamma function Q(df/2, x/2).
    """
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"x must be a finite non-negative real, got {x}")
    if int(df) != df or df < 1:
        raise ValueError(f"df must be an integer >= 1, got {df}")
    return float(special.gammaincc(df / 2.0, x / 2.0))
