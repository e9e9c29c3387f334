"""Computations the benchmark checks the program against.

None of this calls into genbenford.  Where the program has an algorithm,
the oracle takes another route to the same numbers: first digits by integer
comparison with powers of ten (never str(), so the interpreter's int->str
limit stays untouched), squares, cubes and pentagonal numbers counted per
leading digit by bisection, primes from an odd-only numpy sieve, Bell
numbers from Stirling numbers of the second kind, Catalan numbers from
central binomials, lucky and Ulam numbers with numpy arrays, chi-square
tails in closed form (not scipy's gammaincc), PB by summing per-term
differences, and PB in extended precision through mpmath.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

LOG10 = np.log10(np.arange(1, 11, dtype=float))

# ---------------------------------------------------------------------------
# exact first digits and digit counts of integers

_POW10 = {0: 1}


def pow10(k: int) -> int:
    p = _POW10.get(k)
    if p is None:
        p = _POW10[k] = 10 ** k
    return p


def decimal_digits(n: int) -> int:
    """Number of decimal digits of an integer n >= 1."""
    # floor((b-1) log10 2) <= floor(log10 n) for n in [2^(b-1), 2^b)
    k = (n.bit_length() - 1) * 30103 // 100000
    while pow10(k + 1) <= n:
        k += 1
    return k + 1


# ---------------------------------------------------------------------------
# sequences, each by a route other than the program's


def primes_below(bound: int) -> np.ndarray:
    """Odd-only sieve on a numpy array."""
    if bound <= 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones(bound // 2, dtype=bool)  # odd[i] <-> 2i+1
    odd[0] = False
    for i in range(1, (math.isqrt(bound - 1) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1))


def fibonacci(count):
    a, b = 0, 1
    for _ in range(count):
        a, b = b, a + b
        yield a


def catalan(count):
    """C(n) = binomial(2n, n) / (n + 1), with the central binomial updated
    by binomial(2n, n) = binomial(2n-2, n-1) 2(2n-1) / n."""
    central = 1
    for n in range(count):
        if n:
            central = central * 2 * (2 * n - 1) // n
        yield central // (n + 1)


def bell(count):
    """B(1)..B(count) as row sums of Stirling numbers of the second kind."""
    row = [1]  # S(0, k)
    for n in range(1, count + 1):
        nxt = [0] * (n + 1)
        for k in range(1, n + 1):
            nxt[k] = k * (row[k] if k < len(row) else 0) + row[k - 1]
        row = nxt
        yield sum(row)


def partition(count):
    """p(1)..p(count) from the generalized pentagonal numbers, listed once."""
    pent = []
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 > count:
            break
        sign = -1 if k % 2 == 0 else 1
        pent.append((g1, sign))
        g2 = k * (3 * k + 1) // 2
        if g2 <= count:
            pent.append((g2, sign))
        k += 1
    p = [1]
    for n in range(1, count + 1):
        total = 0
        for g, sign in pent:
            if g > n:
                break
            total += sign * p[n - g]
        p.append(total)
        yield total


def lucky(count: int) -> np.ndarray:
    limit = max(200, 30 * count)
    while True:
        s = np.arange(1, limit, 2, dtype=np.int64)
        i = 1
        while i < len(s) and s[i] <= len(s):
            step = int(s[i])
            keep = np.ones(len(s), dtype=bool)
            keep[step - 1::step] = False
            s = s[keep]
            i += 1
        if len(s) >= count:
            return s[:count]
        limit *= 2


def ulam(count: int) -> list[int]:
    """(1,2)-Ulam numbers: reps[x] counts the ways x is a sum of two
    distinct terms found so far; the next term is the least x beyond the
    last term with exactly one way."""
    size = 64
    reps = np.zeros(size, dtype=np.int32)
    terms = [1, 2]
    reps[3] = 1
    while len(terms) < count:
        t = terms[-1] + 1 + int(np.flatnonzero(reps[terms[-1] + 1:] == 1)[0])
        sums = t + np.asarray(terms)
        if sums[-1] >= size:
            size = 2 * int(sums[-1])
            reps = np.concatenate((reps, np.zeros(size - len(reps), dtype=np.int32)))
        reps[sums] += 1
        terms.append(t)
    return terms[:count]


def int_digit_counts(values) -> tuple[list[int], int]:
    """(first-digit counts, total decimal digits) of positive integers."""
    counts = [0] * 9
    ndig = 0
    for v in values:
        v = int(v)
        nd = decimal_digits(v)
        ndig += nd
        counts[v // pow10(nd - 1) - 1] += 1
    return counts, ndig


def _count_below(f, count: int, bound: int) -> int:
    """How many n in 1..count have f(n) < bound, for increasing f."""
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if f(mid) < bound:
            lo = mid
        else:
            hi = mid - 1
    return lo


def increasing_digit_counts(f, count: int) -> tuple[list[int], int]:
    """int_digit_counts of f(1)..f(count) for an increasing integer f,
    without listing the values: the n with first digit d are those with
    d 10^k <= f(n) < (d+1) 10^k, found by bisection on n."""
    counts = [0] * 9
    ndig = 0
    for k in range(decimal_digits(f(count))):
        below = [_count_below(f, count, d * pow10(k)) for d in range(1, 11)]
        for d in range(9):
            counts[d] += below[d + 1] - below[d]
        ndig += count - below[0]
    return counts, ndig


def sqrt_digit_counts(count: int) -> list[int]:
    """First-digit counts of sqrt(1)..sqrt(count): sqrt(n) starts with d
    exactly when (d 10^k)^2 <= n < ((d+1) 10^k)^2."""
    counts = [0] * 9
    k = 0
    while pow10(2 * k) <= count:
        for d in range(1, 10):
            lo = (d * pow10(k)) ** 2
            hi = min(((d + 1) * pow10(k)) ** 2, count + 1)
            counts[d - 1] += max(0, hi - lo)
        k += 1
    return counts


def sorted_digit_counts(values: np.ndarray) -> tuple[list[int], int]:
    """int_digit_counts of a sorted array of positive int64 values."""
    counts = [0] * 9
    ndig = 0
    top = int(values[-1])
    for k in range(decimal_digits(top)):
        pos = np.searchsorted(values, [d * pow10(k) for d in range(1, 11)])
        for d in range(9):
            counts[d] += int(pos[d + 1] - pos[d])
        ndig += len(values) - int(pos[0])
    return counts, ndig


# Published first-digit percentages of the two bundled lists, from the
# paper's survey table; the histograms follow from them exactly.
KEITH_71_PCT = (32.4, 14.1, 14.1, 7.0, 4.2, 7.0, 12.7, 2.8, 5.6)
IDONEAL_65_PCT = (30.8, 18.5, 13.8, 10.8, 6.2, 3.1, 7.7, 6.2, 3.1)

# ---------------------------------------------------------------------------
# survey reconstruction


def largest_remainder(pct, n: int) -> list[int]:
    """Counts from percentages: round each n pct/100 half up, then move the
    total to n one count at a time, largest rounding loss first (ties to
    the lower digit), in exact rational arithmetic."""
    raw = [Fraction(n) * Fraction(str(p)) / 100 for p in pct]
    base = [math.floor(r + Fraction(1, 2)) for r in raw]
    short = n - sum(base)
    counts = list(base)
    if short > 0:
        for i in sorted(range(9), key=lambda i: (base[i] - raw[i], i))[:short]:
            counts[i] += 1
    elif short < 0:
        for i in sorted(range(9), key=lambda i: (raw[i] - base[i], i))[:-short]:
            counts[i] -= 1
    return counts


# ---------------------------------------------------------------------------
# digit laws in float64


def benford() -> np.ndarray:
    return np.log10(1.0 + 1.0 / np.arange(1, 10))


def tspb(c: float) -> np.ndarray:
    lo, hi = LOG10[:9], LOG10[1:]
    return 0.5 * (hi ** c - lo ** c - (1.0 - hi) ** c + (1.0 - lo) ** c)


def pb(alpha: float, beta: float, m: int) -> np.ndarray:
    """PB by direct summation of per-term digit differences (m <= ~10^5)."""
    lo, hi = LOG10[:9], LOG10[1:]
    k = np.arange(1, m + 1, dtype=float)[:, None]
    with np.errstate(under="ignore"):
        terms = (k + lo) ** -alpha - (k + hi) ** -alpha
    lower = alpha / (alpha + beta) * (hi ** beta - lo ** beta)
    return lower + beta / (alpha + beta) * terms.sum(axis=0)


def pb_exact(alpha: float, beta: float, m: int, dps: int = 40) -> np.ndarray:
    """PB in extended precision: m + 1 + log10 d is formed in mpmath."""
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        xs = [mpmath.log10(d) for d in range(1, 11)]
        if m <= 200:
            sums = [mpmath.fsum((k + x) ** (-a) for k in range(1, m + 1)) for x in xs]
        elif a == 1:
            sums = [mpmath.digamma(m + 1 + x) - mpmath.digamma(1 + x) for x in xs]
        else:
            sums = [mpmath.zeta(a, 1 + x) - mpmath.zeta(a, mpmath.mpf(m) + 1 + x)
                    for x in xs]
        out = []
        for i in range(9):
            lower = a / (a + b) * (xs[i + 1] ** b - xs[i] ** b)
            out.append(float(lower + b / (a + b) * (sums[i] - sums[i + 1])))
    return np.asarray(out)


def pb_deficit_exact(alpha: float, beta: float, m: int) -> float:
    with mpmath.workdps(30):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        return float(b / (a + b) * (mpmath.mpf(m) + 1) ** (-a))


# ---------------------------------------------------------------------------
# chi-square statistic and tail


def chi_square(counts, probs) -> float:
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() * np.asarray(probs, dtype=float)
    return math.fsum((counts - expected) ** 2 / expected)


def chi_square_sf(x: float, df: int) -> float:
    """P(X > x) for chi-square with df degrees of freedom, in closed form:
    a Poisson sum for even df, erfc plus a half-integer series for odd df."""
    y = x / 2.0
    if df % 2 == 0:
        term, total = 1.0, 1.0
        for j in range(1, df // 2):
            term *= y / j
            total += term
        return math.exp(-y) * total
    total = math.erfc(math.sqrt(y))
    term = math.sqrt(y) / math.gamma(1.5)
    for j in range(1, (df - 1) // 2 + 1):
        total += math.exp(-y) * term
        term *= y / (j + 0.5)
    return total


def tspb_grid_min(counts, step: float = 1e-4, c_max: float = 10.0) -> tuple[float, float]:
    """Least chi-square over TSPB's c: a dense grid on (0, c_max], then a
    finer grid around the best cell."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    lo, hi = LOG10[:9][None, :], LOG10[1:][None, :]

    def chis(cs):
        c = cs[:, None]
        probs = 0.5 * (hi ** c - lo ** c - (1 - hi) ** c + (1 - lo) ** c)
        expected = n * probs
        return ((counts[None, :] - expected) ** 2 / expected).sum(axis=1)

    cs = np.arange(step, c_max + step / 2, step)
    i = int(np.argmin(chis(cs)))
    fine = np.linspace(max(cs[i] - step, 1e-9), min(cs[i] + step, c_max), 2001)
    vals = chis(fine)
    j = int(np.argmin(vals))
    return float(fine[j]), float(vals[j])
