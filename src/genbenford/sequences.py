"""Integer sequence generators with exact arbitrary-precision arithmetic.

Every integer generator works on Python ints end to end, so values such as
Catalan(99) or Bell(100) keep their exact leading digit.  Squares, cubes and
pentagonal numbers are running sums (`itertools.accumulate`) of their exact
integer differences, and partition numbers come from Euler's recurrence over
a precomputed table of pentagonal offsets.  Keith and idoneal numbers ship as
bundled data files; the rest are generated from scratch.  Ulam numbers
come from bitsets of the sums above the last term (`ulam`), lucky numbers
from a sieve run first to a limit near the last one (`_lucky_limit`).
A user's data file is values (`read_values`), not a sequence kind.

`digit_histogram_of` counts nine kinds, each by its entry in the one
registry `_COUNTED`, listing no term or only a short head.  Squares,
cubes, pentagonal numbers and square roots increase, so their first
digits are fixed by where they cross each digit edge d*10^k, found by
bisection on n with one exact integer test per step (`_TERM_BELOW`).  The
primes below a bound are counted between the digit edges in the odd sieve
that `primes_below` lists from.  Fibonacci, Catalan, Bell and partition
numbers are read off float logs with a proven error bound, one numpy array
for all terms past a listed head, and the few terms whose logs lie too
close to a digit edge are computed exactly, by the kind's own generator
carried on past the head to them.  Lucky, Ulam, Keith and idoneal numbers
are listed and tallied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from bisect import bisect_right
from itertools import accumulate, compress, islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .digits import DigitHistogram, _digits_from_log10, _first_digits, _is_integral, histogram
from .reference import data_dir

SEQUENCE_KINDS = (
    "squares", "cubes", "square_roots", "primes_below", "pentagonal",
    "fibonacci", "catalan", "bell", "partition", "lucky", "ulam", "keith", "idoneal",
)
_IDONEAL_COUNT = 65  # the numbers in data/idoneal.txt
_KEITH_COUNT = 71  # the numbers in data/keith.txt

__all__ = [
    "SequenceSpec",
    "SEQUENCE_KINDS",
    "generate",
    "digit_histogram_of",
    *SEQUENCE_KINDS,  # the generators
    "parse_values",
    "read_values",
    "format_values",
]


@dataclass(frozen=True)
class SequenceSpec:
    """Which sequence to generate: one of SEQUENCE_KINDS plus an integer
    count or upper bound (an integral float is stored as an int).

    `param` counts terms (keith: 1..71, the bundled numbers) and is an
    exclusive upper bound for primes_below.  idoneal takes 0 or 65, both
    meaning the 65 bundled numbers, and stores 65.
    """

    kind: str
    param: int = 0

    def __post_init__(self):
        if self.kind not in SEQUENCE_KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}; choose "
                             f"from {', '.join(SEQUENCE_KINDS)}")
        if not _is_integral(self.param):
            raise ValueError(f"param must be an integer, got {self.param!r}")
        object.__setattr__(self, "param", int(self.param))
        if self.kind == "idoneal":
            if self.param not in (0, _IDONEAL_COUNT):
                raise ValueError(f"param must be 0 or {_IDONEAL_COUNT} for idoneal, "
                                 f"got {self.param}")
            object.__setattr__(self, "param", _IDONEAL_COUNT)
        elif self.param < 1:
            raise ValueError(f"param must be >= 1 for {self.kind}")
        elif self.kind == "keith" and self.param > _KEITH_COUNT:
            raise ValueError(f"only {_KEITH_COUNT} Keith numbers are bundled, "
                             f"got param={self.param}")


def squares(count: int) -> Iterator[int]:
    """n^2 for n = 1..count, as the running sum n^2 = 1 + 3 + ... + (2n-1)."""
    return accumulate(range(1, 2 * count, 2))


def cubes(count: int) -> Iterator[int]:
    """n^3 for n = 1..count, as the running sum of the centred hexagonal
    numbers 3k^2 - 3k + 1 = 1 + 6 + 12 + ... + 6(k-1), k = 1..n."""
    return accumulate(accumulate(range(6, 6 * count, 6), initial=1))


def pentagonal(count: int) -> Iterator[int]:
    """n(3n-1)/2 for n = 1..count, as the running sum 1 + 4 + ... + (3n-2)."""
    return accumulate(range(1, 3 * count, 3))


def square_roots(count: int) -> Iterator[float]:
    """sqrt(n) for n = 1..count."""
    return map(math.sqrt, range(1, count + 1))


def _odd_sieve(bound: int) -> bytearray:
    """The sieve of Eratosthenes over the odd numbers below bound >= 2:
    sieve[i] is 1 exactly when 2i + 1 is prime."""
    size = bound // 2
    sieve = bytearray(b"\x01") * size
    sieve[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(bound - 1) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, size, p)))
    return sieve


def primes_below(bound: int) -> list[int]:
    """All primes < bound: 2, then the odd primes of `_odd_sieve`."""
    if bound < 3:
        return []
    return [2, *compress(range(1, bound, 2), _odd_sieve(bound))]


def fibonacci(count: int) -> Iterator[int]:
    """F(1)..F(count) with F(1) = F(2) = 1."""
    a, b = 1, 1
    for _ in range(count):
        yield a
        a, b = b, a + b


def catalan(count: int) -> Iterator[int]:
    """The first `count` Catalan numbers 1, 1, 2, 5, 14, ...

    Starts from the 0th number binomial(0,0)/1 = 1, so the second entry is
    the duplicate 1; computed by the exact integer recurrence
    C(n+1) = C(n) * 2(2n+1) / (n+2).
    """
    c = 1
    for n in range(count):
        yield c
        c = c * 2 * (2 * n + 1) // (n + 2)


def bell(count: int) -> Iterator[int]:
    """B(1)..B(count) = 1, 2, 5, 15, 52, ... via the Bell triangle.

    Each triangle row starts with the previous row's last entry and adds
    pairwise; row n ends in B(n).  `digit_histogram_of` lists only the first
    _LISTED_HEAD terms and reads the rest off `_bell_logs`.
    """
    row = [1]
    for _ in range(count):
        yield row[-1]
        row = list(accumulate(row, initial=row[-1]))


def partition(count: int) -> Iterator[int]:
    """p(1)..p(count) by Euler's pentagonal-number recurrence

        p(n) = sum over k >= 1 of (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)].

    The generalized pentagonal numbers k(3k-1)/2 and k(3k+1)/2 are tabled
    once, split by the sign of k's term; each table is ascending.
    `digit_histogram_of` lists only the first _PARTITION_HEAD terms and
    reads the rest off the leading term of Rademacher's series.
    """
    plus, minus = [], []
    k = 1
    while (g := k * (3 * k - 1) // 2) <= count:
        (plus if k % 2 else minus).extend((g, g + k))
        k += 1
    # while p(n) is computed, p holds p(0)..p(n-1), so p[n - g] is p[-g]
    plus_back, minus_back = [-g for g in plus], [-g for g in minus]
    p = [1]
    term = p.__getitem__
    for n in range(1, count + 1):
        total = (sum(map(term, plus_back[:bisect_right(plus, n)]))
                 - sum(map(term, minus_back[:bisect_right(minus, n)])))
        p.append(total)
        yield total


def _lucky_limit(count: int) -> int:
    """The first sieve limit for `count` lucky numbers: count (ln count +
    ln ln count + 2), at least 200.  The n-th lucky number grows like
    n ln n (Gardiner, Lazarus, Metropolis & Ulam 1956; Hawkins & Briggs
    1957); this limit is 1.12 to 1.24 times it for every count from 1,000
    to 100,000."""
    if count < 3:
        return 200
    log = math.log(count)
    return max(200, int(count * (log + math.log(log) + 2)))


def lucky(count: int) -> list[int]:
    """The first `count` lucky numbers 1, 3, 7, 9, 13, ... by the lucky sieve.

    The sieve runs over the odd numbers below a limit, first `_lucky_limit`.
    Each pass deletes survivors by their position in the list, and the
    positions below the limit do not depend on any number above it, so the
    survivors are exactly the lucky numbers below the limit, whatever it is.
    If they are fewer than `count`, the limit doubles and the sieve reruns:
    the result never rests on the bound.
    """
    SequenceSpec("lucky", count)  # the spec's own check of count
    limit = _lucky_limit(count)
    while True:
        survivors = list(range(1, limit, 2))
        i = 1
        while i < len(survivors) and survivors[i] <= len(survivors):
            step = survivors[i]
            del survivors[step - 1::step]
            i += 1
        if len(survivors) >= count:
            return survivors[:count]
        limit *= 2


_LOW_64 = (1 << 64) - 1


def ulam(count: int) -> list[int]:
    """The first `count` terms of the (1,2)-Ulam sequence.

    A term is the smallest integer larger than the last that is the sum of
    two distinct earlier terms in exactly one way.  The sums are kept as
    bitsets in Python ints, in a frame that starts just above the last term
    u_n: bit i of `once` is set when the sum u_n + 1 + i has at least one
    such representation, and of `twice` when it has two or more; bit u - 1
    of `low` is set for each term u.  No sum at or below u_n is kept, as
    none is read again.

    The next term is u_n + g, with g - 1 the lowest set bit of once ^ twice
    (twice is a subset of once), and one is always set: the sum u_n +
    u_{n-1}, at bit u_{n-1} - 1, has exactly one representation.  For if
    a + b = u_n + u_{n-1} with terms a < b, then b = u_n, a = u_{n-1}, or
    else b <= u_{n-1} and a + b <= u_{n-1} + u_{n-2} < u_n + u_{n-1}.  The
    bit is read from the low 64 bits of both sets, or from the whole ints
    when no bit is set there (gaps reach 122 by term 2,018 and 262 by term
    5,000).

    A new term t = u_n + g moves the frame up by g: `once` and `twice` shift
    right by g, dropping the sums up to t.  In the new frame the new sums
    t + u are at bit u - 1, that is exactly `low`; they are distinct, so a
    bit of `low` already in `once` is a second representation.
    """
    SequenceSpec("ulam", count)  # the spec's own check of count
    terms = [1, 2]
    # above the last term 2: the one sum 3 = 1 + 2, at bit 0
    last, low, once, twice = 2, 0b11, 1, 0
    for _ in range(count - 2):
        unique = (once & _LOW_64) ^ (twice & _LOW_64) or once ^ twice
        gap = (unique & -unique).bit_length()
        last += gap
        once >>= gap
        twice = (twice >> gap) | (once & low)
        once |= low
        low |= 1 << (last - 1)
        terms.append(last)
    return terms[:count]


def keith(count: int) -> list[int]:
    """The first `count` Keith numbers, from the bundled list of the 71
    below 10^19; no search extends it (the 72nd lies past 10^19)."""
    SequenceSpec("keith", count)  # the spec's own check of count
    return read_values(data_dir() / "keith.txt")[:count]


def idoneal(count: int = _IDONEAL_COUNT) -> list[int]:
    """The 65 known idoneal numbers, from the bundled list; `count` is 65,
    or 0, which SequenceSpec reads as 65."""
    count = SequenceSpec("idoneal", count).param  # the spec's own check of count
    return read_values(data_dir() / "idoneal.txt")[:count]


# ---------------------------------------------------------------------------
# data files: one value per line, unbounded decimal integers or reals;
# blank lines and '#' comments ignored.  Python refuses int <-> str
# conversions past its digit limit (4,300 digits by default), so longer
# integers are converted in halves.


def _int_from_decimal(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the digit limit
        k = len(digits) // 2
        return _int_from_decimal(digits[:-k]) * 10 ** k + _int_from_decimal(digits[-k:])


def _decimal_from_int(n) -> str:
    try:
        return str(n)
    except ValueError:  # an int past the digit limit
        k = n.bit_length() * 3 // 20  # under half its digits
        high, low = divmod(abs(n), 10 ** k)
        return "-" * (n < 0) + _decimal_from_int(high) + _decimal_from_int(low).zfill(k)


def parse_values(text: str) -> list:
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(_int_from_decimal(line) if line.isdecimal() else int(line))
        except ValueError:
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"line {lineno}: not a number: {line!r}") from None
    return values


def read_values(path) -> list:
    return parse_values(Path(path).read_text())


def format_values(values) -> str:
    return "\n".join(map(_decimal_from_int, values)) + "\n"


# ---------------------------------------------------------------------------
# dispatch


def generate(spec: SequenceSpec):
    """Yield the values described by `spec` (ints, or floats for square_roots)."""
    # every kind is this module's generator of that name, looked up
    # at call time so that a rebound module attribute takes effect
    return globals()[spec.kind](spec.param)


# Values read at a time: a sequence is held only as digits.  Each chunk pays
# a fixed numpy cost in _first_digits (about 20 us, against about 80 us for
# the whole of a chunk of 1024 partition numbers, half of that the conversion
# of the ints to float64, on one core of a shared 2-CPU x86-64 host), so
# larger chunks are cheaper per value.  Only the reference listings of the
# counted kinds (tests/digits_corpus.py) hold huge ints in a chunk: 1024
# fibonacci(30000) terms (up to 6,270 digits each) peak at about 5.5 MB
# traced, against about 19 MB at 4096.
_HISTOGRAM_CHUNK = 1024

# Whether term n of an increasing closed-form kind lies below the edge E,
# by exact integer arithmetic: sqrt(n) < E exactly when n < E^2, and
# n(3n-1) is even, so its half is exact.
_TERM_BELOW = {
    "squares": lambda n, edge: n * n < edge,
    "cubes": lambda n, edge: n ** 3 < edge,
    "pentagonal": lambda n, edge: n * (3 * n - 1) // 2 < edge,
    "square_roots": lambda n, edge: n < edge * edge,
}


def _edge_counted_histogram(below, count: int) -> DigitHistogram:
    """The digit histogram of terms 1..count of an increasing sequence whose
    first term is at least 1, from `below(n, E)`: whether term n lies below E.

    The terms below each edge d*10^k, d = 2..10, are counted by bisection on
    n, from the count below the edge before it, for k = 0 .. D-1 with D the
    last term's digit count; digit d takes the terms from d*10^k to below
    (d+1)*10^k.  That is at most 9 D (count.bit_length() + 1) tests.
    """
    below_edge = [0]  # the counts below 1, 2, ..., 9, 10, 20, ..., 90, 100, 200, ...
    power = 1
    while below_edge[-1] < count:
        for d in range(2, 11):
            lo, hi = below_edge[-1], count  # the count below d*power lies in lo..hi
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if below(mid, d * power):
                    lo = mid
                else:
                    hi = mid - 1
            below_edge.append(lo)
        power *= 10
    between = [high - low for low, high in zip(below_edge, below_edge[1:])]
    return DigitHistogram([sum(between[d::9]) for d in range(9)])


def _prime_histogram(bound: int) -> DigitHistogram:
    """The digit histogram of the primes below `bound`, from the odd sieve
    alone: digit d takes the odd primes in [d*10^k, min((d+1)*10^k, bound)),
    sieve entries lo // 2 to hi // 2 for each k, and the prime 2 takes digit 2.
    The sieve holds only 0 and 1, so its nonzero entries count the primes."""
    sieve = np.frombuffer(_odd_sieve(max(bound, 2)), np.uint8)
    counts = [0] * 9
    counts[1] = int(bound > 2)  # the prime 2
    power = 1
    while power < bound:
        for d in range(1, 10):
            lo, hi = d * power // 2, min((d + 1) * power, bound) // 2
            counts[d - 1] += int(np.count_nonzero(sieve[lo:hi]))
        power *= 10
    return DigitHistogram(counts)


# Fibonacci, Catalan and Bell numbers taken from their generators, as exact
# ints, before the float logs of the later terms take over; among the first
# ones 1, 2 and 5 have logs exactly on a digit edge.
_LISTED_HEAD = 64

# log10((1 + sqrt 5) / 2) and log10(sqrt 5), each the nearest float to it
_LOG10_PHI = 0.20898764024997873
_LOG10_SQRT5 = 0.34948500216800943

# |x_n - log10 F(n)| <= _FIBONACCI_ERROR n, and |x_n - log10 C(n)| <=
# _CATALAN_ERROR n (1 + x_n), for the x_n and n > _LISTED_HEAD of
# _fibonacci_histogram and _catalan_histogram, whose docstrings prove them
_FIBONACCI_ERROR = 1e-16
_CATALAN_ERROR = 5e-16


def _ascending(terms: Iterator):
    """term(i): item i of the iterator `terms` from where it stands now, for
    i that increase from one call to the next, as `_digits_from_log10` asks
    for them."""
    taken = 0

    def term(i):
        nonlocal taken
        value = next(islice(terms, i - taken, None))
        taken = i + 1
        return value
    return term


def _log_counted_histogram(terms: Iterator, head: int, x, error) -> DigitHistogram:
    """The digit histogram of the first `head` items of the generator `terms`,
    listed, then of the items whose logs are x (within `error`), of which
    those near a digit edge are computed by carrying `terms` on to them."""
    listed = _first_digits(list(islice(terms, head)))
    return histogram(np.concatenate([listed, _digits_from_log10(x, error, _ascending(terms))]))


def _fibonacci_histogram(count: int) -> DigitHistogram:
    """The digit histogram of F(1)..F(count): the first _LISTED_HEAD terms
    listed, then x_n = n L - S for n > _LISTED_HEAD, with L and S the
    nearest floats to log10 phi and log10 sqrt 5, phi = (1 + sqrt 5) / 2.
    A term within 2 _FIBONACCI_ERROR n of a digit edge is computed exactly.

    The bound.  log10 F(n) = n log10 phi - log10 sqrt 5 + log10(1 -
    (-phi^-2)^n), and the last term is under 1e-26 for n > 64.  With
    u = 2^-53 and n exact as a float: |L - log10 phi| <= u/8 contributes
    1.4e-17 n, the rounding of n L at most u 0.209 n = 2.4e-17 n, |S -
    log10 sqrt 5| <= u/4 = 2.8e-17, and the rounding of the difference,
    under n L, another 2.4e-17 n: in all under 6.2e-17 n + 2.8e-17 <=
    1e-16 n.
    """
    n = np.arange(_LISTED_HEAD + 1, count + 1, dtype=float)
    return _log_counted_histogram(fibonacci(count), _LISTED_HEAD,
                                  n * _LOG10_PHI - _LOG10_SQRT5, _FIBONACCI_ERROR * n)


def _catalan_histogram(count: int) -> DigitHistogram:
    """The digit histogram of C(0)..C(count - 1): the first _LISTED_HEAD
    terms listed, then x_n = log10 C(n) for n >= _LISTED_HEAD as the
    running sum of t_k = log10(2(2k+1)/(k+2)), k < n, the logs of
    C(k+1)/C(k).  A term within 2 _CATALAN_ERROR n (1 + x_n) of a digit
    edge is computed exactly.

    The bound, with u = 2^-53.  The quotient 2(2k+1)/(k+2) of two exact
    floats rounds by at most u relative, moving its log by under
    0.44 u = 4.9e-17, and np.log10 is taken to err by at most 4 ulps of
    t_k < log10 4, under 4 u = 4.5e-16: each t_k is within 5e-16.  Each of
    the n - 1 additions of the running sum rounds by at most u x_j <= u x_n,
    as the partial sums x_j increase.  In all the error is under
    n (5e-16 + 1.2e-16 x_n) <= 5e-16 n (1 + x_n).
    """
    k = np.arange(count - 1, dtype=float)
    x = np.cumsum(np.log10(2 * (2 * k + 1) / (k + 2)))[_LISTED_HEAD - 1:]
    n = np.arange(_LISTED_HEAD, count)
    return _log_counted_histogram(catalan(count), _LISTED_HEAD, x, _CATALAN_ERROR * n * (1 + x))


# log10 2 and log10 e, each the nearest float to it
_LOG10_2 = 0.3010299956639812
_LOG10_E = 0.4342944819032518

# |x_n - log10 B(n)| <= _BELL_ERROR (n^2 + 16 (1 + x_n)) for the x_n and
# n <= 10^6 of _bell_histogram, whose docstring proves it
_BELL_ERROR = 2.5e-17


def _bell_logs(count: int) -> np.ndarray:
    """x_n close to log10 B(n) for n = 1..count, from the Bell triangle in
    float64.  Each row is np.cumsum of the last entry of the row before
    followed by that row; a row whose last entry passes 2^512 is scaled by
    an exact power of two, 2^-shift, and `scale` keeps the sum of the shifts."""
    row, scale = np.ones(1), 0
    last, exponent = np.empty(count), np.empty(count, dtype=np.int64)
    for n in range(count):
        last[n], exponent[n] = row[-1], scale
        row = np.cumsum(np.concatenate((row[-1:], row)))
        if row[-1] > 2.0 ** 512:
            shift = int(np.frexp(row[-1])[1])
            row = np.ldexp(row, -shift)
            scale += shift
    mantissa, power = np.frexp(last)
    return np.log10(mantissa) + (power + exponent) * _LOG10_2


def _bell_histogram(count: int) -> DigitHistogram:
    """The digit histogram of B(1)..B(count): the first _LISTED_HEAD terms
    listed, then x_n from `_bell_logs` for n > _LISTED_HEAD.  A term within
    2 _BELL_ERROR (n^2 + 16 (1 + x_n)) of a digit edge is computed exactly,
    by the one exact triangle that lists the head, carried on to the
    largest such n (`_ascending`).

    The bound, with u = 2^-53.  Every entry of the float triangle is a sum
    of two nonnegative entries computed before it (or a copy of one), so
    if those are within relative gamma_a and gamma_b of the exact entries,
    the rounded sum is within (1 + max(gamma_a, gamma_b))(1 + u) - 1: with
    gamma_k = (1 + u)^k - 1, an entry reached through a chain of k
    roundings is within gamma_k.  Entry j of row n + 1 takes j more
    roundings than its first entry, the last of row n, so the last entry
    of row n, B(n), takes 1 + 2 + ... + (n - 1) = n(n - 1)/2 <= n^2/2.
    The scaling by 2^-shift is exact: it keeps the largest entry in
    [0.5, 1), and the smallest, the first, in [0.5/n, 1) since
    B(n) / B(n-1) < n, far from the subnormals; and no entry overflows,
    each row being under 2^512 (n + 1).  So for k u <= 1e-4, n <= 10^6,
    |log10 of the float B(n) - log10 B(n)| <= log10(e) gamma_k / (1 -
    gamma_k) <= 0.4345 u n^2/2 <= 2.42e-17 n^2.
    The logs: frexp splits the float B(n) 2^-scale into an exact mantissa m
    in [0.5, 1) and an exponent p, with P = p + scale an exact integer and
    P log10 2 <= x_n + 0.31.  np.log10(m), taken to err by at most 4 ulps of
    a value under 0.302, is within 2.3e-16; |_LOG10_2 - log10 2| <= 2^-55
    and the rounding of P _LOG10_2 add under 6.2e-17 P <= 2.1e-16 (x_n +
    0.31), and the final addition u x_n.  In all, under 2.42e-17 n^2 +
    3e-16 + 3.2e-16 x_n <= _BELL_ERROR (n^2 + 16 (1 + x_n)).
    """
    n = np.arange(_LISTED_HEAD + 1, count + 1, dtype=float)
    x = _bell_logs(count)[_LISTED_HEAD:]
    return _log_counted_histogram(bell(count), _LISTED_HEAD, x,
                                  _BELL_ERROR * (n * n + 16 * (1 + x)))


# Partition numbers listed before the leading term of Rademacher's series
# takes over: past p(600) it is within 1e-13 in log10 (_partition_histogram)
_PARTITION_HEAD = 600

# pi sqrt(2/3) and pi^2 / (6 sqrt 3), each the nearest float to it
_RADEMACHER_C = 2.565099660323728
_RADEMACHER_K = 0.9497031262940094

# the float rounding in the x_n of _partition_histogram is under
# _PARTITION_ROUNDING (mu_n + 2.5 (1 + |s_n|))
_PARTITION_ROUNDING = 4e-16


def _partition_histogram(count: int) -> DigitHistogram:
    """The digit histogram of p(1)..p(count): the first _PARTITION_HEAD
    terms listed, then for n > _PARTITION_HEAD the log10 of the k = 1 term
    of Rademacher's series (Rademacher 1937),

        T_1 = K e^mu h(mu) / mu^2,  h(mu) = 1 - 1/mu + e^(-2 mu) (1 + 1/mu),
        mu = C sqrt(n - 1/24),  C = pi sqrt(2/3),  K = pi^2 / (6 sqrt 3),

    as x_n = mu log10 e + s_n, s_n = log10(K (1 - 1/mu) / mu^2): no cosh or
    sinh is formed, so nothing overflows.  A term within twice its bound of
    a digit edge is computed exactly by the recurrence that lists the head,
    carried on to the largest such n (`_ascending`).

    The bound.  p(n) = T_1 + T_2 + R(n, 2).  The k = 2 term T_2 has
    A_2(n) = (-1)^n, and |T_2| / T_1 = e^(-mu/2) h(mu/2) / (sqrt 2 h(mu)),
    under e^(-mu/2) / (sqrt 2 (1 - 1/mu)) as h(mu/2) < 1 < h(mu) + 1/mu.
    Lehmer's (1938) remainder after N terms, as quoted by Johansson (2012),
    is |R(n, N)| < 44 pi^2 / (225 sqrt 3) N^(-1/2) + pi sqrt 2 / 75
    (N / (n - 1))^(1/2) sinh(pi / N sqrt(2n/3)); it holds for every
    n <= 3000 against the exact p(n) at 60 digits (the tests check it to
    n = 2000).  With N = 2 and sinh(nu) < e^nu / 2, nu = C sqrt(n) / 2,
    the relative error delta of T_1 is under

        (0.7072 e^(-mu/2) + mu^2 (0.83 e^(-mu) + 0.0442 e^(nu - mu) /
        sqrt(n - 1))) / (1 - 1/mu),

    and |log10 p(n) - log10 T_1| <= log10(e) delta / (1 - delta) <=
    0.44 delta, also covering the float evaluation of delta and the dropped
    e^(-2 mu) term, under 1e-50 past n = 600.  The rounding, u = 2^-53:
    n - 1/24, the square root, C and the product put mu within 3.6 u
    relative, moving x_n by under 0.4343 * 3.6 u mu; the rounded constant
    and product in mu log10 e add 2 u 0.4343 mu, and the final sum u x_n <=
    0.49 u mu: under 4e-16 mu in all.  The argument of s_n is within 5 u
    relative, 2.4e-16 in s_n, and np.log10, taken to err by at most 4 ulps,
    adds 8.9e-16 |s_n|: under 1e-15 (1 + |s_n|).  The total bound is
    0.44 delta + _PARTITION_ROUNDING (mu + 2.5 (1 + |s_n|)), under 1.1e-13
    at n = 601 and 8.5e-14 at n = 6,000.
    """
    n = np.arange(_PARTITION_HEAD + 1, count + 1, dtype=float)
    mu = _RADEMACHER_C * np.sqrt(n - 1 / 24)
    s = np.log10(_RADEMACHER_K * (1 - 1 / mu) / (mu * mu))
    x = mu * _LOG10_E + s
    nu = _RADEMACHER_C / 2 * np.sqrt(n)
    delta = (0.7072 * np.exp(-mu / 2) + mu * mu * (
        0.83 * np.exp(-mu) + 0.0442 * np.exp(nu - mu) / np.sqrt(n - 1))) / (1 - 1 / mu)
    error = 0.44 * delta + _PARTITION_ROUNDING * (mu + 2.5 * (1 - s))
    return _log_counted_histogram(partition(count), _PARTITION_HEAD, x, error)


# Kinds whose digit histogram is counted without listing a term:
# kind -> (count -> DigitHistogram).  An edge-counted kind reads its term
# test from _TERM_BELOW at call time.
_COUNTED = {
    **{kind: lambda count, kind=kind: _edge_counted_histogram(_TERM_BELOW[kind], count)
       for kind in _TERM_BELOW},
    "primes_below": _prime_histogram,
    "fibonacci": _fibonacci_histogram,
    "catalan": _catalan_histogram,
    "bell": _bell_histogram,
    "partition": _partition_histogram,
}


def _listed_histogram(spec: SequenceSpec) -> DigitHistogram:
    """The digit histogram of the generated values, _HISTOGRAM_CHUNK at a time."""
    values = iter(generate(spec))
    chunks = iter(lambda: list(islice(values, _HISTOGRAM_CHUNK)), [])
    digits = [_first_digits(chunk).astype(np.int8) for chunk in chunks]
    return histogram(np.concatenate([np.empty(0, np.int8), *digits]))


def digit_histogram_of(spec: SequenceSpec) -> DigitHistogram:
    """The digit histogram of the sequence `spec` describes.

    The kinds in `_COUNTED` list no term, or only a short head:

    - squares, cubes, pentagonal numbers and square roots increase, so they
      are counted at the digit edges: O(D log count) tests for terms of at
      most D digits, each a comparison of Python ints, exact at any count;
    - primes_below counts the odd sieve's entries between digit edges;
    - fibonacci, catalan and bell read the digits of all but their first
      _LISTED_HEAD terms, and partition of all but its first
      _PARTITION_HEAD, off float logs with a proven error bound, and compute
      exactly the few terms whose logs lie too close to a digit edge.

    Lucky, Ulam, Keith and idoneal numbers are generated and their first
    digits tallied `_HISTOGRAM_CHUNK` values at a time.

    The square roots' digits are those of the real roots.  A tally of
    `first_digit_real(math.sqrt(n))` agrees up to 249,999,999,998 terms;
    from n = 249,999,999,999 on, its 1e-12 guard gives the roots just below
    an edge d*10^k the digit of the edge.
    """
    counted = _COUNTED.get(spec.kind)
    return counted(spec.param) if counted else _listed_histogram(spec)
