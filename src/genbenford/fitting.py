"""Minimum chi-square fitting of digit laws to first-digit histograms.

The Pearson statistic is computed over all nine digit cells with no
pooling.  Degrees of freedom follow the 9-cells-minus-1-minus-estimated-
parameters convention, 8 - n_params of the law: 8 for Benford, 7 for
TSPB, 6 for PB.

Both fitters are deterministic: the 1-D TSPB search scans a fixed bracket
grid and refines each local minimum by golden section; the 2-D PB search
runs Nelder-Mead from a fixed grid of starts in (log alpha, log beta)
space, with alpha capped at 1e9 (the chi-square surface goes flat in
alpha for near-Benford data, so the cap only pins an arbitrarily large
estimate; the minimized chi-square is unaffected).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .digits import DigitHistogram
from .distributions import (
    PB,
    TSPB,
    ModelParams,
    chi_square_sf,
    model_to_dict,
    pmf_vector,
    tspb_vector,
)
from .distributions import _pb_probs

__all__ = [
    "FitResult",
    "chi_square_stat",
    "fit_tspb",
    "fit_pb",
    "goodness_of_fit",
]

_ALPHA_CAP = 1e9
_LOG_ALPHA_CAP = math.log(_ALPHA_CAP)
_LOG_BETA_CAP = 700.0  # exp() overflow guard only; never binds at an optimum

# c-bracket grid for the 1-D search; two basins are possible because both
# c = 1 and c = 2 reduce TSPB to Benford.
_C_GRID_STEP = 0.25
_C_MAX = 10.0
_C_MIN = 1e-9
_GOLDEN_TOL = 1e-9

_NM_STARTS = [(la, lb) for la in (-1.0, 0.0, 1.0, 2.0, 4.0, 8.0)
              for lb in (-1.0, 0.0, 1.0, 2.0, 4.0, 8.0)]
# extra start at a near-Benford corner (alpha = 1e6, beta = 1) so the fit is
# never worse than the near-Benford member of the family
_NM_STARTS.append((math.log(1e6), 0.0))


@dataclass(frozen=True)
class FitResult:
    """A fitted digit law with its goodness-of-fit statistics."""

    model: ModelParams
    chi_square: float
    df: int
    p_value: float
    converged: bool
    evaluations: int

    def to_json_dict(self) -> dict:
        return {
            "model": model_to_dict(self.model),
            "chi_square": self.chi_square,
            "df": self.df,
            "p_value": self.p_value,
            "converged": self.converged,
            "evaluations": self.evaluations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def _of(cls, model: ModelParams, chi_square: float, converged: bool,
            evaluations: int) -> "FitResult":
        """df = 8 - the law's parameter count, with its p-value."""
        df = 8 - model.n_params
        return cls(model=model, chi_square=chi_square, df=df,
                   p_value=chi_square_sf(chi_square, df), converged=converged,
                   evaluations=evaluations)

    def to_csv_row(self, label: str = "") -> str:
        """CSV row: sequence, model, params, chi2, df, p."""
        m = model_to_dict(self.model)
        kind = m.pop("model")
        params = ";".join(f"{k}={v}" for k, v in m.items())
        return ",".join(
            [label, kind, params, repr(self.chi_square), str(self.df),
             repr(self.p_value)]
        )


def chi_square_stat(hist: DigitHistogram, probs) -> float:
    """Pearson statistic sum_d (O_d - n p_d)^2 / (n p_d), no cell pooling."""
    if hist.sample_size < 1:
        raise ValueError("histogram must have sample_size >= 1")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (9,):
        raise ValueError(f"expected 9 probabilities, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite")
    counts = np.asarray(hist.counts, dtype=float)
    bad = (probs <= 0) & (counts > 0)
    if np.any(bad):
        d = int(np.argmax(bad)) + 1
        raise ValueError(f"probability for digit {d} is <= 0 but its count is > 0")
    live = probs > 0
    expected = hist.sample_size * probs[live]
    return float(((counts[live] - expected) ** 2 / expected).sum())


def goodness_of_fit(hist: DigitHistogram, model: ModelParams,
                    estimated_params: int) -> tuple[float, int, float]:
    """(chi_square, df, p_value) for a model with 0..2 estimated parameters."""
    if estimated_params not in (0, 1, 2):
        raise ValueError(f"estimated_params must be 0, 1 or 2, got {estimated_params}")
    chi2 = chi_square_stat(hist, pmf_vector(model))
    df = 8 - estimated_params
    return chi2, df, chi_square_sf(chi2, df)


def _golden_section(f, lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """Minimize a unimodal f on [lo, hi]; returns (x, f(x), evaluations)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    nev = 2
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        nev += 1
    x = x1 if f1 <= f2 else x2
    return x, min(f1, f2), nev


def fit_tspb(hist: DigitHistogram) -> FitResult:
    """Minimize the chi-square over TSPB's shape c in (0, 10].

    Multistart bracket scan at step 0.25 followed by golden-section
    refinement of every local minimum.
    """
    nev = 0

    def obj(c: float) -> float:
        nonlocal nev
        nev += 1
        return chi_square_stat(hist, tspb_vector(c))

    grid = np.arange(_C_GRID_STEP, _C_MAX + 1e-12, _C_GRID_STEP)
    vals = [obj(c) for c in grid]
    i_best = int(np.argmin(vals))
    best_c, best_val = float(grid[i_best]), vals[i_best]
    for i, c in enumerate(grid):
        left = vals[i - 1] if i > 0 else math.inf
        right = vals[i + 1] if i + 1 < len(grid) else math.inf
        if vals[i] <= left and vals[i] <= right:
            lo = float(grid[i - 1]) if i > 0 else _C_MIN
            hi = float(grid[i + 1]) if i + 1 < len(grid) else _C_MAX
            x, fx, n = _golden_section(obj, lo, hi, _GOLDEN_TOL)
            nev += n
            if fx < best_val:
                best_c, best_val = x, fx
    return FitResult._of(TSPB(c=best_c), best_val, converged=True, evaluations=nev)


def fit_pb(hist: DigitHistogram, m: int = 1000) -> FitResult:
    """Minimize the chi-square over PB's (alpha, beta) at truncation m.

    Nelder-Mead in (log alpha, log beta) space from a fixed multistart
    grid; result selection is lowest chi-square with ties going to the
    earliest start.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    counts = np.asarray(hist.counts, dtype=float)
    if hist.sample_size < 1:
        raise ValueError("histogram must have sample_size >= 1")
    n = hist.sample_size
    nev = 0

    # hot path: skip model validation, let invalid/underflowed pmfs surface
    # as non-finite chi-squares and map them to a large sentinel
    def obj(lp) -> float:
        nonlocal nev
        nev += 1
        a = math.exp(min(lp[0], _LOG_ALPHA_CAP))
        b = math.exp(min(lp[1], _LOG_BETA_CAP))
        expected = n * _pb_probs(a, b, m)
        v = ((counts - expected) ** 2 / expected).sum()
        return float(v) if math.isfinite(v) else 1e300

    # two-stage multistart: a coarse pass over every start ranks the basins,
    # then the best few coarse endpoints are polished to full precision
    coarse = []
    best = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in _NM_STARTS:
            res = optimize.minimize(
                obj, np.asarray(start), method="Nelder-Mead",
                options=dict(xatol=1e-3, fatol=1e-6, maxiter=150, maxfev=200),
            )
            coarse.append(res)
        order = sorted(range(len(coarse)), key=lambda i: (coarse[i].fun, i))
        for i in order[:3]:
            res = optimize.minimize(
                obj, coarse[i].x, method="Nelder-Mead",
                options=dict(xatol=1e-8, fatol=1e-12, maxiter=3000, maxfev=3500),
            )
            if best is None or res.fun < best.fun:
                best = res
    alpha = math.exp(min(float(best.x[0]), _LOG_ALPHA_CAP))
    beta = math.exp(min(float(best.x[1]), _LOG_BETA_CAP))
    return FitResult._of(PB(alpha=alpha, beta=beta, m=m), float(best.fun),
                         converged=bool(best.success), evaluations=nev)
