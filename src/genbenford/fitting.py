"""Minimum chi-square fitting of digit laws to first-digit histograms.

The Pearson statistic is computed over all nine digit cells with no
pooling.  Degrees of freedom follow the 9-cells-minus-1-minus-estimated-
parameters convention, 8 - n_params of the law: 8 for Benford, 7 for
TSPB, 6 for PB.

fit(hist, law, m) fits every law, the one map from a law to its fitter:
Benford is scored, TSPB fitted by fit_tspb, and PB by fit_pb.

Both fitters are deterministic and score points through one batched
chi-square objective.  The 1-D TSPB search is one golden section run
on all 40 cells of a 0.25-step c-grid at once, one point per cell in
each call.  The 2-D PB search in (log alpha, log beta) space starts from a
profile over log alpha (the profile chi-square of Venzon & Moolgavkar
1988, used as a search): the series of 120 alphas is evaluated once, and
each alpha's chi-square is minimized over log beta by a grid and a golden
section that need no further series evaluation; the limit beta -> infinity,
the series alone, is searched in log alpha in the same golden-section
calls.  Then a Newton polish from each start: projected Newton steps
(Bertsekas 1982), two calls per iteration, run from each of the best 3
local minima of the profile and from the limit, and the lowest end is the
fit.
tests/fit_pb_corpus.py and its dense-grid oracle judge the result: on 657
fixed-seed histograms no fit is worse than a dense-grid search by more
than 1e-9.  alpha is capped at exactly 1e9 (the chi-square surface goes
flat in alpha for near-Benford data, so the cap only pins an arbitrarily
large estimate; the minimized chi-square is unaffected).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .digits import DigitHistogram
from .distributions import (PB, TSPB, Benford, ModelParams, adaptive_truncation,
                            chi_square_sf, model_to_dict)
from .distributions import _check_model, _pb_mix, _pb_probs, _series_differences, _tspb_probs

__all__ = [
    "FitResult",
    "chi_square_stat",
    "fit",
    "fit_tspb",
    "fit_pb",
    "goodness_of_fit",
]

_ALPHA_CAP = 1e9
_LOG_ALPHA_CAP = math.log(_ALPHA_CAP)
# exp() overflow guard; the law there is the limit beta -> infinity to float64
_LOG_BETA_CAP = 700.0

# cells of the 1-D search, each refined by golden section: two basins are
# possible because both c = 1 and c = 2 reduce TSPB to Benford, and a
# basin may be narrower than a cell
_C_GRID_STEP = 0.25
_C_MAX = 10.0
_C_MIN = 1e-9
_GOLDEN_TOL = 1e-9
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# fit_pb's profile over log alpha: the series of 120 alphas from e^-4 to the
# cap, each row scored at every log beta of a grid, then refined in beta.  A
# log-beta step of 0.32 keeps the basins of tiny histograms that a step of
# 0.79 misses; the corpora's basins past log beta 12 are those of the limit
# beta -> infinity, searched on its own
_PROFILE_LOG_ALPHAS = np.linspace(-4.0, _LOG_ALPHA_CAP, 120)
_PROFILE_LOG_BETAS = np.linspace(-8.0, 12.0, 64)
# the two ends in log beta: beta -> 0, where the law tends to all its mass on
# digit 1, and beta -> infinity, where it tends to the series S(alpha) alone
_PROFILE_ENDS = np.array([-_LOG_BETA_CAP, _LOG_BETA_CAP])
_PROFILE_BLOCK = 24  # alpha rows per series or grid call: temporaries of 110 kB at most
# the golden sections' width: at 1e-3 the valley of a fit of n = 244,695 is
# too narrow in log beta to rank its basin first
_PROFILE_TOL = 1e-4
_PROFILE_STARTS = 3
# the least rise of the profile between two of its starts
_PROFILE_RISE = 1e-6

# the polish's central-difference stencil, line-search step scales, step
# tolerance and iteration cap
_H = 1e-4
_STENCIL = _H * np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])
_STEP_SCALES = 0.5 ** np.arange(12)
_STEP_TOL = 1e-8
_NEWTON_MAXITER = 50


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
        """Every field, the model in its JSON form: the one record of a fit."""
        return {**asdict(self), "model": model_to_dict(self.model)}

    @classmethod
    def _of(cls, model: ModelParams, chi_square: float, converged: bool,
            evaluations: int) -> "FitResult":
        """df = 8 - the law's parameter count, with its p-value."""
        df = 8 - model.n_params
        return cls(model=model, chi_square=chi_square, df=df,
                   p_value=chi_square_sf(chi_square, df), converged=converged,
                   evaluations=evaluations)


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
        raise ValueError(f"probability for digit {int(np.argmax(bad)) + 1} is <= 0 "
                         "but its count is > 0")
    live = probs > 0
    return float(_pearson(counts[live], hist.sample_size * probs[live]))


def _pearson(counts: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """sum (O - E)^2 / E over the last axis: the one Pearson line."""
    return ((counts - expected) ** 2 / expected).sum(axis=-1)


def _objective(hist: DigitHistogram, probs_of):
    """The batched objective: parameter points -> the chi-squares of the
    pmfs that probs_of maps them to, C-order (..., 9) arrays (so a row's sum
    does not depend on the batch), one chi-square per row: a non-finite
    chi-square (an underflowed or invalid pmf) or a negative cell (rounding
    where a series is not valid) is 1e300."""
    n = hist.sample_size
    if n < 1:
        raise ValueError("histogram must have sample_size >= 1")
    counts = np.asarray(hist.counts, dtype=float)

    def chi_squares(x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            expected = n * probs_of(x)
            v = _pearson(counts, expected)
        return np.where(np.isfinite(v) & (expected >= 0).all(axis=-1), v, 1e300)

    return chi_squares


# kept for bench/workloads.py, which scores Benford with it
def goodness_of_fit(hist: DigitHistogram, model: ModelParams,
                    estimated_params: int) -> tuple[float, int, float]:
    """(chi_square, df, p_value) for a model with 0..2 estimated parameters."""
    if estimated_params not in (0, 1, 2):
        raise ValueError(f"estimated_params must be 0, 1 or 2, got {estimated_params}")
    chi2 = chi_square_stat(hist, _check_model(model).pmf())
    df = 8 - estimated_params
    return chi2, df, chi_square_sf(chi2, df)


def fit(hist: DigitHistogram, law, m=1000) -> FitResult:
    """Fit the digit law `law`, a law class, to hist; a law with no
    parameters is scored, not fitted.  m is the truncation of a law with an
    m field, an integer or "adaptive": a pilot fit at m = 1000, refitted at
    its adaptive truncation only where that lies above 1000.  A law without
    an m field ignores m."""
    if law is Benford:
        return FitResult._of(Benford(), chi_square_stat(hist, Benford().pmf()),
                             converged=True, evaluations=1)
    if law is TSPB:
        return fit_tspb(hist)
    if law is not PB:
        raise TypeError(f"not a digit law: {law!r}")
    if m != "adaptive":
        return fit_pb(hist, m=m)
    pilot = fit_pb(hist, m=1000)
    m = adaptive_truncation(pilot.model.alpha, pilot.model.beta)
    return fit_pb(hist, m=m) if m > 1000 else pilot


def fit_tspb(hist: DigitHistogram) -> FitResult:
    """Minimize the chi-square over TSPB's shape c in (0, 10].

    One golden section runs on every cell [_C_MIN, 0.25], [0.25, 0.5],
    ..., [9.75, 10] at once, each step scoring one point per cell in one
    call.  The 41 cell edges are scored too, so an optimum at a grid
    point (c = 10 included) is exact.  `evaluations` counts every point
    scored.
    """
    objective = _objective(hist, _tspb_probs)
    edges = np.r_[_C_MIN, np.arange(_C_GRID_STEP, _C_MAX + 1e-12, _C_GRID_STEP)]
    x, fx, nev = _golden_section(lambda c: objective(c[:, None]), edges[:-1], edges[1:],
                                 _GOLDEN_TOL)
    cs, vals = np.r_[edges, x], np.r_[objective(edges[:, None]), fx]
    best = int(np.argmin(vals))
    return FitResult._of(TSPB(c=float(cs[best])), float(vals[best]), converged=True,
                         evaluations=len(edges) + nev)


def _golden_section(f, a: np.ndarray, b: np.ndarray, tol: float) -> tuple:
    """One golden section on every interval [a_k, b_k] at once, until each
    is at most tol wide: each step calls f, (K,) -> (K,), on one point per
    interval.  Returns each interval's best point and value, and the number
    of points scored."""
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    nev = 2 * len(a)
    while np.any(b - a > tol):
        left = f1 <= f2  # the minimum lies in [a, x2], else in [x1, b]
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = f(x)
        nev += len(x)
        x1, x2, f1, f2 = (np.where(left, x, x2), np.where(left, x1, x),
                          np.where(left, fx, f2), np.where(left, f1, fx))
    return np.where(f1 <= f2, x1, x2), np.minimum(f1, f2), nev


def _pb_params(la: np.ndarray, lb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log alphas and log betas -> their alphas and betas, capped: the one
    map, so a fit reports the law it scored."""
    return (np.where(la >= _LOG_ALPHA_CAP, _ALPHA_CAP, np.exp(la)),
            np.exp(np.minimum(lb, _LOG_BETA_CAP)))


def _pb_objective(hist: DigitHistogram, m: int):
    """fit_pb's objective, on (K, 2) points in (log alpha, log beta)."""
    return _objective(hist, lambda lp: _pb_probs(*_pb_params(*lp.T), m))


def _pb_profile(hist: DigitHistogram, m: int) -> tuple:
    """Where fit_pb's search begins: (starts, nev).

    The series of the 120 alphas is evaluated once, _PROFILE_BLOCK at a
    time.  The two ends in log beta are scored first; a point there that
    scores 0 is the one start, as nothing scores lower.  Otherwise each
    alpha row is scored on the log-beta grid, _PROFILE_BLOCK rows a call,
    and its best beta refined by golden section (its best interior grid
    minimum, if it has one); the limit beta -> infinity, the series
    S(alpha) alone, is searched in log alpha in the same calls.  The
    starts (S, 2) are the best _PROFILE_STARTS local minima of the profile
    over log alpha, best first (ties to the smaller alpha), each in a basin
    of its own, then the limit's point.  nev counts every point scored.
    """
    alpha, beta = _pb_params(_PROFILE_LOG_ALPHAS, _PROFILE_LOG_BETAS)
    series = np.concatenate([_series_differences(alpha[i:i + _PROFILE_BLOCK], m)
                             for i in range(0, len(alpha), _PROFILE_BLOCK)])

    def scored(a, b, s):  # PB(a, b) from the series s of a, all broadcast together
        return _objective(hist, lambda b: _pb_mix(a, b, s))(b)

    ends = scored(alpha[:, None], _pb_params(0.0, _PROFILE_ENDS)[1], series[:, None])
    if ends.min() == 0:
        i, k = np.unravel_index(ends.argmin(), ends.shape)
        start = np.array([[_PROFILE_LOG_ALPHAS[i], _PROFILE_ENDS[k]]])
        return start, ends.size
    chi = np.concatenate([
        scored(alpha[i:i + _PROFILE_BLOCK, None], beta, series[i:i + _PROFILE_BLOCK, None])
        for i in range(0, len(alpha), _PROFILE_BLOCK)])
    # one golden section on 121 intervals: each alpha row's log beta, and the
    # limit's log alpha, between the grid neighbours of the best grid point;
    # a row refines its best interior minimum, if it has one, rather than an
    # edge, where the golden section cannot pass the grid and a narrow basin
    # between two grid points may hide under the edge's value
    padded = np.pad(chi, ((0, 0), (1, 1)), constant_values=-np.inf)
    inner = np.where((chi <= padded[:, :-2]) & (chi <= padded[:, 2:]), chi, np.inf)
    j = np.where(inner.min(axis=1) < np.inf, inner.argmin(axis=1), chi.argmin(axis=1))
    lo, hi = _neighbours(_PROFILE_LOG_BETAS, j)
    limit_lo, limit_hi = _neighbours(_PROFILE_LOG_ALPHAS, ends[:, 1].argmin(keepdims=True))

    def probs(x):  # the rows' pmfs from their series, then the limit's
        return np.r_[_pb_mix(alpha, _pb_params(_PROFILE_LOG_ALPHAS, x[:-1])[1], series),
                     _pb_probs(*_pb_params(x[-1:], _LOG_BETA_CAP), m)]

    x, fx, nev = _golden_section(_objective(hist, probs), np.r_[lo, limit_lo],
                                 np.r_[hi, limit_hi], _PROFILE_TOL)
    grid_best = chi.min(axis=1)
    lb = np.where(fx[:-1] < grid_best, x[:-1], _PROFILE_LOG_BETAS[chi.argmin(axis=1)])
    fb = np.minimum(fx[:-1], grid_best)
    padded = np.r_[np.inf, fb, np.inf]
    local = np.flatnonzero((fb <= padded[:-2]) & (fb <= padded[2:]))
    best = []
    for i in local[np.argsort(fb[local], kind="stable")]:
        # a minimum is a start only if the profile rises by more than
        # _PROFILE_RISE between it and each better start: rounding alone
        # makes minima on a flat stretch, such as the near-Benford plateau
        # toward the alpha cap
        if all(fb[min(i, k):max(i, k) + 1].max() > fb[i] + _PROFILE_RISE for k in best):
            best.append(i)
            if len(best) == _PROFILE_STARTS:
                break
    return (np.r_[np.c_[_PROFILE_LOG_ALPHAS[best], lb[best]], [[x[-1], _LOG_BETA_CAP]]],
            ends.size + chi.size + nev)


def _neighbours(grid: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grid points before and after each index i, or i itself at an end."""
    return grid[np.maximum(i - 1, 0)], grid[np.minimum(i + 1, len(grid) - 1)]


def _newton_polish(f, x: np.ndarray) -> tuple:
    """A damped Newton descent (Nocedal & Wright 2006, 3.1 and 8.1) from the
    point x (2,): each iteration calls f once on the 3x3 stencil giving the
    gradient and Hessian, once on the line search.  If the Hessian is not
    positive definite, each coordinate takes a Newton step where its
    curvature is > 0, else a unit step down the gradient.  Returns (x, fun,
    nfev, converged): converged unless stopped at _NEWTON_MAXITER."""
    x, nfev = np.array(x, dtype=float), 0
    for _ in range(_NEWTON_MAXITER):
        s = f(x + _STENCIL).reshape(3, 3)
        fun, lines = s[1, 1], np.stack([s[:, 1], s[1, :]])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = (lines[:, 2] - lines[:, 0]) / (2 * _H)
            curv = (lines[:, 2] - 2 * lines[:, 1] + lines[:, 0]) / _H ** 2
            cross = (s[2, 2] - s[2, 0] - s[0, 2] + s[0, 0]) / (4 * _H ** 2)
            det = curv[0] * curv[1] - cross ** 2
            step = ((cross * g[::-1] - curv[::-1] * g) / det if curv[0] > 0 and det > 0
                    else np.where(curv > 0, -g / curv, -g))
        # the scaled steps, then the point moved to the cap, for a valley falling to it
        trial = np.append(x + _STEP_SCALES[:, None] * step, [x + [np.inf, 0.0]], axis=0)
        trial[:, 0] = np.minimum(trial[:, 0], _LOG_ALPHA_CAP)
        values = f(trial)
        nfev += len(_STENCIL) + len(values)
        best = int(values.argmin())
        if not values[best] < fun:
            return x, fun, nfev, True
        x, fun, moved = trial[best], values[best], np.abs(trial[best] - x).max()
        if moved <= _STEP_TOL:
            return x, fun, nfev, True
    return x, fun, nfev, False


def fit_pb(hist: DigitHistogram, m: int = 1000) -> FitResult:
    """Minimize the chi-square over PB's (alpha, beta) at truncation m.

    In (log alpha, log beta) space: the profile (_pb_profile), then a
    Newton polish (_newton_polish) from each start; the lowest end is the
    fit, ties to the earlier start.  `converged` says that polish
    stopped on its step tolerance or found no lower point, not at its
    iteration cap; `evaluations` counts every point scored.
    """
    m = PB(1.0, 1.0, m).m  # the law's own check of m
    objective = _pb_objective(hist, m)
    starts, nev = _pb_profile(hist, m)
    polished = [_newton_polish(objective, x) for x in starts]
    x, fun, _, converged = min(polished, key=lambda p: p[1])  # the first of equals
    alpha, beta = _pb_params(*x)
    return FitResult._of(PB(alpha=float(alpha), beta=float(beta), m=m), float(fun),
                         converged=converged, evaluations=nev + sum(p[2] for p in polished))
