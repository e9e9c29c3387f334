"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own algorithms: leading
digits come from integer comparisons against powers of ten instead of
log10, partition counts from a coin-style DP table instead of the
pentagonal recurrence, Bell numbers from the binomial convolution instead
of the triangle, Ulam terms by scanning every candidate instead of keeping
representation counts, lucky numbers by dropping survivors through a numpy
mask instead of deleting list slices, Keith membership from the digit
recurrence and Keith completeness from a vectorized exhaustive search, the digit counts of
squares, cubes, pentagonal numbers and square roots from integer roots
instead of a bisection at each digit edge, those of the primes by
bisection over a sorted list from a full sieve instead of counts in an odd
sieve,
the digit of a log10 fraction by binary search over the digit bounds
instead of a table of 1,024 cells,
the 1-D fit check from a dense parameter grid instead of a golden section
on every grid cell, the PB fit check from a dense grid of directly summed
series and SciPy's Nelder-Mead instead of a profile and Newton polishes,
and the PB series from the Hurwitz zeta function in mpmath
instead of Euler-Maclaurin summation in float64.
"""
import functools
import math
from bisect import bisect_left

import mpmath
import numpy as np
from scipy import optimize

from genbenford import DigitHistogram
from genbenford.fitting import _pb_objective

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


@functools.lru_cache(maxsize=1 << 14)
def _power_of_ten(k):
    return 10 ** k


def leading_digit(n):
    """Leading decimal digit of a positive int, with no str() and no log: a
    binary search by integer comparison for the k with 10^k <= n < 10^(k+1),
    starting from n < 2^b <= 10^(b//3 + 1) for b bits, then n // 10^k."""
    lo, hi = 0, n.bit_length() // 3 + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _power_of_ten(mid) <= n:
            lo = mid
        else:
            hi = mid
    return n // _power_of_ten(lo)


def sqrt_leading_digit(n):
    """First digit of sqrt(n) for an int n >= 1: with 100^k <= n < 100^(k+1),
    sqrt(n) / 10^k lies in [1, 10) and its floor is isqrt(n // 100^k)."""
    k = 0
    while 100 ** (k + 1) <= n:
        k += 1
    return math.isqrt(n // 100 ** k)


def integer_cube_root(x):
    """floor(x^(1/3)) for an int x >= 0, by Newton's method on ints from
    2^ceil(b/3) >= x^(1/3), x of b bits, down to the floor."""
    if x == 0:
        return 0
    r = 1 << -(-x.bit_length() // 3)
    while (s := (2 * r + x // (r * r)) // 3) < r:
        r = s
    return r


# kind -> how many n >= 1 have term n below the int e >= 1, by an integer
# root: n^2 < e, n^3 < e, n(3n-1)/2 <= e - 1 (that is, 6n - 1 <= sqrt(24(e-1) + 1))
# and sqrt(n) < e
TERMS_BELOW = {
    "squares": lambda e: math.isqrt(e - 1),
    "cubes": lambda e: integer_cube_root(e - 1),
    "pentagonal": lambda e: (1 + math.isqrt(24 * (e - 1) + 1)) // 6,
    "square_roots": lambda e: e * e - 1,
}


def root_digit_counts(kind, count):
    """First-digit counts of terms 1..count of squares, cubes, pentagonal
    numbers or square roots, listing no term: digit d of decade k takes the
    terms in [d 10^k, (d+1) 10^k), counted by TERMS_BELOW at both ends."""
    below = TERMS_BELOW[kind]
    counts = [0] * 9
    power = 1
    while below(power) < count:  # some term reaches 10^k
        for d in range(1, 10):
            counts[d - 1] += (min(count, below((d + 1) * power))
                              - min(count, below(d * power)))
        power *= 10
    return counts


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


def prime_digit_counts(bound, primes):
    """First-digit counts of the primes below bound, by bisection over
    `primes`, the sorted primes below some bound at least as large."""
    counts = [0] * 9
    power = 1
    while power < bound:
        for d in range(1, 10):
            lo, hi = d * power, min((d + 1) * power, bound)
            counts[d - 1] += max(0, bisect_left(primes, hi) - bisect_left(primes, lo))
        power *= 10
    return counts


def ulam_by_definition(count):
    """The (1,2)-Ulam sequence by scanning every candidate: count the ways
    it is a sum of two distinct earlier terms and keep it at exactly one."""
    terms = [1, 2]
    seen = {1, 2}
    candidate = 2
    while len(terms) < count:
        candidate += 1
        reps = 0
        for t in terms:
            if 2 * t >= candidate:
                break
            if (candidate - t) in seen:
                reps += 1
                if reps > 1:
                    break
        if reps == 1:
            terms.append(candidate)
            seen.add(candidate)
    return terms[:count]


def lucky_by_mask(count):
    """The first `count` lucky numbers by a numpy sieve over the odd numbers
    below 20 count + 200, a bound doubled until it holds count survivors:
    for k = 3, 7, 9, ..., the survivors at the positions that are multiples
    of k are dropped by a boolean mask, until k passes their number."""
    limit = 20 * count + 200
    while True:
        survivors = np.arange(1, limit, 2)
        i = 1
        while i < len(survivors) and survivors[i] <= len(survivors):
            keep = np.ones(len(survivors), dtype=bool)
            keep[survivors[i] - 1::survivors[i]] = False
            survivors = survivors[keep]
            i += 1
        if len(survivors) >= count:
            return survivors[:count].tolist()
        limit *= 2


def is_keith(n):
    """Whether n reproduces itself from its own digits: seed a sequence with
    the k digits of n and iterate k-term sums; n must appear in the sequence.
    Single-digit numbers are excluded by convention."""
    if n < 10:
        return False
    window = [int(ch) for ch in str(n)]
    while True:
        nxt = sum(window)
        if nxt >= n:
            return nxt == n
        window.pop(0)
        window.append(nxt)


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


# SciPy's Nelder-Mead options for the polish after the dense grid: the
# judge's own, so that it does not move with fit_pb's Newton polish
_PB_POLISH = dict(xatol=1e-8, fatol=1e-12, maxiter=3000, maxfev=3500)
_PB_LOG_ALPHAS = np.linspace(-3.0, math.log(1e9), 240)
_PB_LOG_BETAS = np.linspace(-6.0, 10.0, 200)


@functools.lru_cache(maxsize=4)
def _pb_grid_series(m):
    """sum_{k=1..m} ((k + log10 d)^-alpha - (k + log10(d+1))^-alpha) for
    d = 1..9 at every grid alpha, shape (240, 9): each term differenced
    before a plain direct sum, a few alphas at a time."""
    k = np.arange(1, m + 1, dtype=float)[:, None] + _LOG10[None, :]  # (m, 10)
    out = []
    for a in np.array_split(np.exp(_PB_LOG_ALPHAS), 48):
        terms = k[None, :, :] ** -a[:, None, None]
        out.append((terms[:, :, :9] - terms[:, :, 1:]).sum(axis=1))
    return np.concatenate(out)


def pb_dense_grid_min(counts, m):
    """Minimum PB chi-square at truncation m by a dense search: every point
    of a 240x200 grid over log alpha in [-3, ln 1e9] and log beta in
    [-6, 10] is scored from directly summed series, then SciPy's
    Nelder-Mead, with the options _PB_POLISH and on fit_pb's own
    objective, runs from the 20 best grid-local minima (each no worse
    than its 8 neighbours).  Oracle for fit_pb's search; m <= 10**4."""
    if not 1 <= m <= 10 ** 4:
        raise ValueError(f"direct sums need 1 <= m <= 10**4, got {m}")
    objective = _pb_objective(DigitHistogram.from_counts(counts), m)
    counts = np.asarray(counts, dtype=float)
    alpha = np.exp(_PB_LOG_ALPHAS)[:, None, None]
    beta = np.exp(_PB_LOG_BETAS)[None, :, None]
    powers = _LOG10[None, None, :] ** beta  # (1, 200, 10)
    probs = (alpha * (powers[..., 1:] - powers[..., :9])
             + beta * _pb_grid_series(m)[:, None, :]) / (alpha + beta)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expected = counts.sum() * probs
        chi = ((counts - expected) ** 2 / expected).sum(axis=-1)
    chi = np.where(np.isfinite(chi), chi, np.inf)
    padded = np.pad(chi, 1, constant_values=np.inf)
    local = np.ones_like(chi, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            local &= chi <= padded[1 + di:241 + di, 1 + dj:201 + dj]
    i, j = np.nonzero(local & np.isfinite(chi))
    best = np.argsort(chi[i, j], kind="stable")[:20]
    polished = [optimize.minimize(lambda x: float(objective(x[None, :])[0]),
                                  [_PB_LOG_ALPHAS[i[b]], _PB_LOG_BETAS[j[b]]],
                                  method="Nelder-Mead", options=_PB_POLISH).fun
                for b in best]
    return float(min(polished))


def digits_by_search(frac):
    """Digits d with log10 d <= frac < log10(d+1), found by binary search
    over log10 1..9; 1.0 and NaN sort past every bound, to 9."""
    return np.searchsorted(_LOG10[:-1], frac, side="right")


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
