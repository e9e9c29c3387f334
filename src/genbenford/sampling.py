"""Monte Carlo verification of the digit laws, plus the GBM root solver.

Both generalized digit laws arise by exponentiating a power-law random
exponent: if W follows a two-sided power law TSPP(1, c) then the first
digit of 10^W follows TSPB(c); if W follows the double Pareto law
DP(1, alpha, beta), the first digit of 10^W follows PB(alpha, beta).
This module draws W by inverse-CDF sampling, extracts first digits, and
compares the empirical histogram against the analytic mass functions.
Each law's inverse CDF is its own `exponent_branches()`, one power per draw,
which the public samplers and the tally both call; the tally reads each
draw's fraction with no guard.  The tally draws from one random stream in
chunks of 2^14 and counts each chunk by the digit cells of its log10
fractions before the next is drawn; the stream gives the same values in
chunks as in one draw, and a count does not depend on order, so the tally is
that of one draw, in under 1 MB whatever the sample size.

The double Pareto exponents come from geometric Brownian motion observed
at an exponentially distributed time: alpha and -beta are the roots of
(sigma^2/2) z^2 + (mu - sigma^2/2) z = lambda.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digits import DigitHistogram, _fraction_histogram, _is_integral
from .distributions import PB, TSPB, ModelParams, _check_model, pmf_vector
from .fitting import chi_square_stat

__all__ = [
    "GbmParams",
    "gbm_char_roots",
    "sample_tspp",
    "sample_dp",
    "empirical_digit_pmf",
    "VerificationReport",
    "verification_report",
]


@dataclass(frozen=True)
class GbmParams:
    """Geometric Brownian motion drift/volatility plus the rate of the
    exponential observation time."""

    mu: float
    sigma: float
    lam: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be > 0, got {self.lam}")


def gbm_char_roots(params: GbmParams) -> tuple[float, float]:
    """Positive root alpha and negated negative root beta of
    (sigma^2/2) z^2 + (mu - sigma^2/2) z - lambda = 0.

    The two returned values always satisfy alpha * beta = 2 lambda / sigma^2.
    """
    a = 0.5 * params.sigma ** 2
    b = params.mu - 0.5 * params.sigma ** 2
    c = -params.lam
    disc = b * b - 4.0 * a * c  # > 0: both a and lambda are positive
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0 else 1.0))
    r1, r2 = q / a, c / q
    return max(r1, r2), -min(r1, r2)


def _as_unit_interval(u):
    arr = np.asarray(u, dtype=float)
    if not ((arr >= 0.0) & (arr < 1.0)).all():  # NaN fails both
        raise ValueError("u must lie in [0, 1)")
    return arr


def _draw_in_order(u: np.ndarray, split: float, lower, upper) -> np.ndarray:
    """The draws of the uniforms u, in their order."""
    below = u < split
    w = np.empty_like(u)
    w[below] = lower(u[below])
    w[~below] = upper(u[~below])
    return w


def sample_tspp(c: float, u) -> np.ndarray:
    """Inverse-CDF draw from TSPP(1, c), the two-sided power law on (0, 2)
    with mode 1 and shape c; u is one or many uniform(0,1) variates, and a
    scalar u gives a 0-d array.

    TSPP(1, 1) is uniform(0, 2); TSPP(1, 2) is triangular(0, 1, 2).
    """
    branches = TSPB(c).exponent_branches()  # the law's own check of c comes first
    w = _draw_in_order(_as_unit_interval(u), *branches)
    w[w < 0] += 2.0  # the upper branch draws W - 2
    return w


def sample_dp(alpha: float, beta: float, u) -> np.ndarray:
    """Inverse-CDF draw from the double Pareto law DP(1, alpha, beta):
    density ~ w^(beta-1) below 1 and w^(-alpha-1) above 1, with
    P(W <= 1) = alpha / (alpha + beta); a scalar u gives a 0-d array."""
    branches = PB(alpha, beta).exponent_branches()  # the law's own check comes first
    return _draw_in_order(_as_unit_interval(u), *branches)


# Uniforms drawn and tallied at a time; of 2^12 to 2^16 this ran fastest.
_SAMPLE_CHUNK = 1 << 14


def empirical_digit_pmf(model: ModelParams, n_samples: int, seed: int) -> DigitHistogram:
    """Draw n_samples exponents from the model's generating law, take first
    digits of 10^W, and tally.  Deterministic given seed: the uniforms come
    from one default_rng(seed) stream in chunks, the same values as one
    rng.random(n_samples) call, so the counts are those of that one draw."""
    if not (_is_integral(n_samples) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    n_samples = int(n_samples)
    branches = _check_model(model).exponent_branches()
    rng = np.random.default_rng(seed)

    def fractions():
        for start in range(0, n_samples, _SAMPLE_CHUNK):
            u = rng.random(min(_SAMPLE_CHUNK, n_samples - start))
            if branches is None:  # W = U lies in [0, 1): its own fraction
                yield u
            else:  # grouped, not in order: on a random mask two compress passes
                # cost less than a boolean index, whose branches the CPU cannot predict
                split, lower, upper = branches
                below = u < split
                w = np.concatenate([lower(np.compress(below, u)), upper(np.compress(~below, u))])
                yield w - np.floor(w)
    return _fraction_histogram(fractions())


@dataclass(frozen=True)
class VerificationReport:
    """Empirical-vs-analytic digit comparison for one model."""

    model: ModelParams
    n_samples: int
    seed: int
    expected: tuple       # analytic probabilities per digit
    observed: tuple       # observed frequencies per digit
    z_scores: tuple       # (O_d - n p_d) / sqrt(n p_d (1 - p_d)), 0 for 0/0
    chi_square: float

    @property
    def max_abs_z(self) -> float:
        return max(abs(z) for z in self.z_scores)

    def passed(self) -> bool:
        return self.max_abs_z < 4.0


def verification_report(model: ModelParams, n_samples: int, seed: int) -> VerificationReport:
    """Sample the model, compare against its analytic pmf, and report
    per-digit z-scores plus the overall chi-square.  A pmf whose missing mass
    (the law's `deficit()`) would hold at least one of the draws, which the
    tally still reads as digits, raises ValueError before any draw."""
    probs = pmf_vector(model)
    missing = model.deficit() or 0.0
    if _is_integral(n_samples) and n_samples * missing >= 1:
        raise ValueError(f"the pmf lacks mass {missing:.3g}, about {n_samples * missing:.0f} "
                         f"of the {n_samples} draws: raise the truncation m")
    hist = empirical_digit_pmf(model, n_samples, seed)
    chi2 = chi_square_stat(hist, probs)  # first: it refuses a draw in a cell of p = 0
    n = hist.sample_size
    sd = np.sqrt(n * probs * (1.0 - probs))
    z = np.divide(np.asarray(hist.counts) - n * probs, sd, out=np.zeros(9), where=sd > 0)
    return VerificationReport(
        model=model,
        n_samples=n,
        seed=seed,
        expected=tuple(float(p) for p in probs),
        observed=tuple(float(f) for f in hist.frequencies()),
        z_scores=tuple(float(v) for v in z),
        chi_square=chi2,
    )
