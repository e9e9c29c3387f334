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

The PB series is truncated at an index m.  The truncation leaves a total
mass deficit of exactly b/(a+b) * (m+1)^-a, which is reported, never
redistributed over the digits.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from functools import lru_cache
from typing import ClassVar, Union, get_args

import mpmath
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

# Largest truncation index evaluated by direct summation; beyond this the
# partial sums are evaluated in closed form through the Hurwitz zeta function.
_DIRECT_SERIES_LIMIT = 200_000

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
    beta > 0, and series truncation index m >= 1."""

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
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"m must be an integer >= 1, got {self.m}")
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
def _series_grid(m: int) -> np.ndarray:
    # (m, 10) grid of k + log10(d), reused across evaluations at the same m
    return np.arange(1, m + 1, dtype=float)[:, None] + _L10[None, :]


def _series_differences(alpha: float, m: int) -> np.ndarray:
    """sum_{k=1..m} ((k + log10 d)^-alpha - (k + log10 (d+1))^-alpha) for
    d = 1..9, as a length-9 array.

    Direct summation up to _DIRECT_SERIES_LIMIT terms.  For larger m each
    partial sum is zeta(alpha, 1+x) - zeta(alpha, m+1+x) through the
    analytically continued Hurwitz zeta (digamma at alpha == 1); adjacent
    digits are differenced before leaving extended precision because for
    alpha < 1 the individual partial sums grow like m^(1-alpha) and would
    swamp float64.
    """
    if m <= _DIRECT_SERIES_LIMIT:
        sums = (_series_grid(m) ** (-alpha)).sum(axis=0)
        return sums[:9] - sums[1:]
    out = np.empty(9)
    with mpmath.workdps(30):
        if abs(alpha - 1.0) < 1e-12:
            sums = [mpmath.digamma(m + 1 + x) - mpmath.digamma(1 + x)
                    for x in _L10]
        else:
            sums = [mpmath.zeta(alpha, 1 + x) - mpmath.zeta(alpha, m + 1 + x)
                    for x in _L10]
        for i in range(9):
            out[i] = float(sums[i] - sums[i + 1])
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
    if alpha <= 0 or beta <= 0 or m < 1:
        raise ValueError("alpha, beta must be > 0 and m >= 1")
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
