"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own algorithms: partition
counts come from a coin-style DP table instead of the pentagonal recurrence,
Bell numbers from the binomial convolution instead of the triangle, Keith
completeness from a vectorized exhaustive search, the 1-D fit check from
a dense parameter grid instead of bracketing plus golden section, and the PB
series from the Hurwitz zeta function in mpmath instead of Euler-Maclaurin
summation in float64.
"""
import math

import mpmath
import numpy as np

_LOG10 = np.log10(np.arange(1, 11, dtype=float))


def partitions_dp(n_max):
    """p(0..n_max) by dynamic programming over part sizes."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            table[total] += table[total - part]
    return table


def bell_binomial(n_max):
    """B(0..n_max) via B(n+1) = sum_k binomial(n, k) B(k)."""
    b = [1]
    for n in range(n_max):
        b.append(sum(math.comb(n, k) * b[k] for k in range(n + 1)))
    return b


def fibonacci_list(count):
    out, a, b = [], 1, 1
    for _ in range(count):
        out.append(a)
        a, b = b, a + b
    return out


def sieve_primes(bound):
    flags = bytearray(b"\x01") * max(bound, 2)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(bound ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = b"\x00" * len(range(p * p, bound, p))
    return [i for i in range(bound) if flags[i]]


def keith_numbers_below(limit):
    """Exhaustive Keith search below `limit`, batched by digit count."""
    found = []
    k = 2
    while 10 ** (k - 1) < limit:
        lo = 10 ** (k - 1)
        hi = min(10 ** k, limit)
        n = np.arange(lo, hi, dtype=np.int64)
        state = [((n // (10 ** (k - 1 - j))) % 10).astype(np.int64) for j in range(k)]
        total = sum(state)
        alive = total < n
        hit = total == n
        while alive.any():
            state.append(total)
            total = total + total - state[-1 - k]
            hit |= alive & (total == n)
            alive &= total < n
        found.extend(n[hit].tolist())
        k += 1
    return found


def tspb_dense_grid_min(counts, step=1e-4, c_max=10.0):
    """Minimum chi-square over a dense c-grid; oracle for the 1-D fitter."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    cs = np.arange(step, c_max + step / 2, step)
    lo, hi = _LOG10[:9][None, :], _LOG10[1:][None, :]
    c = cs[:, None]
    probs = 0.5 * (hi ** c - lo ** c - (1 - hi) ** c + (1 - lo) ** c)
    expected = n * probs
    chis = ((counts[None, :] - expected) ** 2 / expected).sum(axis=1)
    i = int(np.argmin(chis))
    return float(cs[i]), float(chis[i])


def tspp_cdf(w, alpha, c):
    """CDF of the two-sided power law on (0, 2), by direct integration of
    the density's closed antiderivative."""
    w = np.asarray(w, dtype=float)
    lower = (alpha / 2.0) * (w / alpha) ** c
    upper = 1.0 - ((2.0 - alpha) / 2.0) * ((2.0 - w) / (2.0 - alpha)) ** c
    out = np.where(w <= alpha, lower, upper)
    return np.clip(out, 0.0, 1.0)


def dp_cdf(w, alpha, beta):
    """CDF of the double Pareto law DP(1, alpha, beta)."""
    w = np.asarray(w, dtype=float)
    lower = alpha / (alpha + beta) * np.where(w > 0, w, 0.0) ** beta
    with np.errstate(divide="ignore"):
        upper = 1.0 - beta / (alpha + beta) * np.where(w > 0, w, 1.0) ** (-alpha)
    out = np.where(w <= 1.0, lower, upper)
    return np.clip(out, 0.0, 1.0)


def pb_series_exact(alpha, m, dps=40):
    """sum_{k=1..m} ((k + log10 d)^-alpha - (k + log10(d+1))^-alpha) for
    d = 1..9 at dps digits: direct sums for m <= 200, else differenced
    Hurwitz zeta values (digamma at alpha = 1); rounded to float at the end.
    """
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        xs = [mpmath.log10(d) for d in range(1, 11)]
        if m <= 200:
            sums = [mpmath.fsum((k + x) ** -a for k in range(1, m + 1)) for x in xs]
        elif a == 1:
            sums = [mpmath.digamma(m + 1 + x) - mpmath.digamma(1 + x) for x in xs]
        else:
            sums = [mpmath.zeta(a, 1 + x) - mpmath.zeta(a, mpmath.mpf(m) + 1 + x)
                    for x in xs]
        return np.array([float(sums[i] - sums[i + 1]) for i in range(9)])
