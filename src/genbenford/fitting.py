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
1988, used as a search): the series of 120 alphas and their pmfs on a
log-beta grid and at the limit beta -> infinity, which do not depend on
the histogram, are built once per truncation m and cached in one table,
and each alpha's chi-square is minimized over log beta by that grid and a
golden section that needs no further series evaluation.  A histogram with
every count on digit 1 skips the profile: its one start is the limit
beta -> 0.  Then a Newton polish from each start: projected Newton steps
(Bertsekas 1982), two calls per iteration, run from every local minimum
of the profile and from the limit's best alpha, and the lowest end is
the fit.
tests/fit_pb_corpus.py and its dense-grid oracle judge the result: on 657
fixed-seed histograms no fit is worse than a dense-grid search by more
than 1e-9.  alpha is capped at exactly 1e9 (the chi-square surface goes
flat in alpha for near-Benford data, so the cap only pins an arbitrarily
large estimate; the minimized chi-square is unaffected).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

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
# cap, each row scored at every log beta of a grid and at the limit
# beta -> infinity, then refined in beta.  A log-beta step of 0.32 keeps the
# basins of tiny histograms that a step of 0.79 misses; the corpora's basins
# past log beta 12 are those of the limit
_PROFILE_LOG_ALPHAS = np.linspace(-4.0, _LOG_ALPHA_CAP, 120)
_PROFILE_LOG_BETAS = np.linspace(-8.0, 12.0, 64)
_PROFILE_BLOCK = 40  # alpha rows per scoring call: temporaries of 190 kB at most
# the golden sections' width: at 1e-3 the valley of a fit of n = 244,695 is
# too narrow in log beta to rank its basin first
_PROFILE_TOL = 1e-4

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


def fit(hist: DigitHistogram, law, m=PB.m) -> FitResult:
    """Fit the digit law `law`, a law class, to hist; a law with no
    parameters is scored, not fitted.  m is the truncation of a law with an
    m field, an integer or "adaptive": a pilot fit at PB's default m
    (1000), refitted at its adaptive truncation only where that lies above
    it.  A law without an m field ignores m."""
    if law is Benford:
        return FitResult._of(Benford(), chi_square_stat(hist, Benford().pmf()),
                             converged=True, evaluations=1)
    if law is TSPB:
        return fit_tspb(hist)
    if law is not PB:
        raise TypeError(f"not a digit law: {law!r}")
    if m != "adaptive":
        return fit_pb(hist, m=m)
    pilot = fit_pb(hist, m=PB.m)
    m = adaptive_truncation(pilot.model.alpha, pilot.model.beta)
    return fit_pb(hist, m=m) if m > PB.m else pilot


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


@lru_cache(maxsize=8)
def _profile_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The part of _pb_profile that depends on m alone, read-only: the
    series (120, 9) of the profile's alphas, and their pmfs (120, 65, 9) on
    the log-beta grid and then at the limit, log beta = _LOG_BETA_CAP."""
    alpha, beta = _pb_params(_PROFILE_LOG_ALPHAS, np.r_[_PROFILE_LOG_BETAS, _LOG_BETA_CAP])
    series = _series_differences(alpha, m)
    pmfs = _pb_mix(alpha[:, None], beta, series[:, None])
    series.flags.writeable = pmfs.flags.writeable = False
    return series, pmfs


def _pb_profile(hist: DigitHistogram, m: int) -> tuple:
    """Where fit_pb's search begins: (starts, nev).

    A histogram with every count on digit 1 has the one start (log alpha
    -4, log beta -700): the law tends to all its mass on digit 1 as
    beta -> 0, and nothing scores lower.  Otherwise the pmfs of the 120
    alphas on the log-beta grid and at the limit beta -> infinity, which
    do not depend on hist (_profile_table builds them once per m), are
    scored _PROFILE_BLOCK rows a call, and each row's best beta refined by
    golden section from its series (its best interior grid minimum, if it
    has one).  The starts (S, 2) are every local minimum of the profile
    over log alpha, best first (ties to the smaller alpha), then the alpha
    that scores best at the limit, at log beta _LOG_BETA_CAP.  nev counts
    every point scored.
    """
    if not any(hist.counts[1:]):
        return np.array([[_PROFILE_LOG_ALPHAS[0], -_LOG_BETA_CAP]]), 0
    series, table = _profile_table(m)
    scored = _objective(hist, lambda pmfs: pmfs)
    scores = np.concatenate([scored(table[i:i + _PROFILE_BLOCK])
                             for i in range(0, len(table), _PROFILE_BLOCK)])
    chi, limit = scores[:, :-1], scores[:, -1]
    # one golden section on 120 intervals: each alpha row's log beta between
    # the grid neighbours of its best grid point; a row refines its best
    # interior minimum, if it has one, rather than an edge, where the golden
    # section cannot pass the grid and a narrow basin between two grid
    # points may hide under the edge's value
    padded = np.pad(chi, ((0, 0), (1, 1)), constant_values=-np.inf)
    inner = np.where((chi <= padded[:, :-2]) & (chi <= padded[:, 2:]), chi, np.inf)
    j = np.where(inner.min(axis=1) < np.inf, inner.argmin(axis=1), chi.argmin(axis=1))
    rows = _objective(hist, lambda lb: _pb_mix(*_pb_params(_PROFILE_LOG_ALPHAS, lb), series))
    lo, hi = _PROFILE_LOG_BETAS[np.clip([j - 1, j + 1], 0, len(_PROFILE_LOG_BETAS) - 1)]
    x, fx, nev = _golden_section(rows, lo, hi, _PROFILE_TOL)
    grid_best = chi.min(axis=1)
    lb = np.where(fx < grid_best, x, _PROFILE_LOG_BETAS[chi.argmin(axis=1)])
    fb = np.minimum(fx, grid_best)
    padded = np.r_[np.inf, fb, np.inf]
    local = np.flatnonzero((fb <= padded[:-2]) & (fb <= padded[2:]))
    best = local[np.argsort(fb[local], kind="stable")]
    return (np.r_[np.c_[_PROFILE_LOG_ALPHAS[best], lb[best]],
                  [[_PROFILE_LOG_ALPHAS[limit.argmin()], _LOG_BETA_CAP]]],
            scores.size + nev)


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


def fit_pb(hist: DigitHistogram, m: int = PB.m) -> FitResult:
    """Minimize the chi-square over PB's (alpha, beta) at truncation m.

    In (log alpha, log beta) space: the profile (_pb_profile), then a
    Newton polish (_newton_polish) from each start; the lowest end is the
    fit, ties to the earlier start.  `converged` says that polish
    stopped on its step tolerance or found no lower point, not at its
    iteration cap; `evaluations` counts every point scored.  beta is capped
    at e^700 = 1.01423e+304 (_LOG_BETA_CAP), where the law is the series
    alone to float64.  A fit at that limit is polished from log beta 700
    over a surface flat in beta, so it may report a log beta just below:
    on the fit_pb corpora, 699.98 to 700 (beta 9.98e+303 to the cap).
    """
    m = PB(1.0, 1.0, m).m  # the law's own check of m
    objective = _pb_objective(hist, m)
    starts, nev = _pb_profile(hist, m)
    polished = [_newton_polish(objective, x) for x in starts]
    x, fun, _, converged = min(polished, key=lambda p: p[1])  # the first of equals
    alpha, beta = _pb_params(*x)
    return FitResult._of(PB(alpha=float(alpha), beta=float(beta), m=m), float(fun),
                         converged=converged, evaluations=nev + sum(p[2] for p in polished))
