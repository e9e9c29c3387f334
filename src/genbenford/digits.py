"""First significant digits and digit histograms.

One routine, `_first_digits`, reads first digits off the fraction of log10,
taken for a whole list in one conversion to float64 and one numpy log10.
Integers of any size stay exact: the few whose logarithm lands too close to
a digit edge for log10's rounding error are settled by integer division.
Positive reals keep a guard that reads a value within 1e-12 (in log10)
below a digit bound as that bound's digit, so 0.3 reads 3, applied to
`math.log10`'s own fraction wherever the guard could matter.  Its read and
settle step, `_digits_from_log10`, takes any float logs with an error
bound, so the log-counted sequence kinds are read from their logs alone.

A fraction's digit is looked up, not searched for: [0, 1) is cut into 1,024
cells of width 2^-10, and since the digit bounds log10 d lie at least
log10(10/9) ~ 0.046 apart, a cell holds at most one of them.  The digit is
the cell's starting digit, plus one if the fraction is at or past the bound
inside the cell.  Scaling by 1,024 is exact, so this is the count of bounds
<= the fraction, the same digit a binary search over the bounds gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

__all__ = [
    "DigitHistogram",
    "first_digit_int",
    "first_digit_real",
    "histogram",
    "histogram_from_percentages",
]

# log10(d) for d = 1..10: the significand of x has first digit d exactly when
# frac(log10 x) lies in [log10 d, log10 (d+1)).
_DIGIT_EDGES = np.array([math.log10(d) for d in range(1, 11)])
_DIGIT_BOUNDS = _DIGIT_EDGES[:-1]

# The fraction of a real's log10 within this distance below a bound is read
# as on it; in particular frac >= 1 - eps is an exact power of ten (digit
# 1): log10 of 10**k may evaluate to k - 4e-16*k in floating point.
_BOUNDARY_EPS = 1e-12

# Cell k = [k, k+1) / 1024: the digit at its start and the one bound inside it
# (inf where there is none; log10 1 = 0 starts cell 0).
_CELLS = 1024
_CELL_DIGIT = np.searchsorted(_DIGIT_BOUNDS, np.arange(_CELLS) / _CELLS, side="right")
_CELL_BOUND = np.full(_CELLS, np.inf)
_CELL_BOUND[(_DIGIT_BOUNDS[1:] * _CELLS).astype(np.intp)] = _DIGIT_BOUNDS[1:]

# The rule cells, those with a bound inside; the digit of every fraction in
# each other cell, with 0 on the rule cells.
_RULE_CELL = np.isfinite(_CELL_BOUND)
_PLAIN_CELL_DIGIT = np.where(_RULE_CELL, 0, _CELL_DIGIT)


def _digits_from_log10_fractions(frac: np.ndarray) -> np.ndarray:
    """Digits d with log10 d <= frac < log10(d+1) for frac in [0, 1); 1.0 and
    NaN read 9 through the last cell, where fmin sends them."""
    k = np.fmin(frac * _CELLS, _CELLS - 1).astype(np.intp)
    return _CELL_DIGIT[k] + (frac >= _CELL_BOUND[k])


def _first_digits(values: list) -> np.ndarray:
    """First digits of positive ints (exact at any size) and of finite
    positive reals, in order.

    x = log10 of the whole list comes from one conversion to float64 and one
    numpy log10; only a list holding an int past the float range, where the
    conversion raises OverflowError, takes `math.log10` value by value.  The
    digit is read off frac(x) by the cell table with no guard.  A value
    within 2g of a digit edge, g = max(2e-12, 1e-13 + 1e-14 x) for the
    largest x of the list, goes to `_settled_digit`; a value <= 0, NaN or
    inf gives a non-finite x and raises ValueError.

    Why that is exact.  Under math.log10's x, the values within g of an edge
    are the only ones whose digit could depend on log10's rounding (for an
    int, under 1e-15 * max(x, 1)) or, for a real, on the 1e-12 guard.  This
    x is math.log10's, or lies far closer than g to it: both take log10 of
    the same float(v), which errs by at most 2^-53 relative (5e-17 in x), and numpy's
    log10 differs from math.log10 by a few ulps (at most 2, or 6e-14, over 3
    million doubles measured).  So 2g settles a superset of those values,
    and every value read off the table has the digit math.log10 gives,
    guarded or not: for an int, its exact digit.
    """
    try:
        with np.errstate(divide="ignore", invalid="ignore"):  # a bad value; raised below
            x = np.log10(np.fromiter(values, float, len(values)))
    except OverflowError:  # an int past the float range
        try:
            x = np.fromiter(map(math.log10, values), float, len(values))
        except ValueError:  # math domain error: a value <= 0
            x = np.array([math.nan])
    if not np.isfinite(x).all():
        raise ValueError("expected positive integers or finite positive reals, got "
                         f"{next(v for v in values if not 0 < v < math.inf)}")
    return _digits_from_log10(x, max(2e-12, 1e-13 + 1e-14 * x.max(initial=0.0)),
                              values.__getitem__)


def _digits_from_log10(x: np.ndarray, error, value) -> np.ndarray:
    """First digits of values v_0, v_1, ... from finite x_i within `error`
    (a float, or an array like x) of log10 v_i.

    The digit is read off frac(x_i) by the cell table, except that a value
    whose x_i lies within 2 error of a digit edge is settled one by one, as
    `_settled_digit(value(i), x_i)`.  Every other x_i lies at least 2 error
    from each edge as a float, so more than error from the edge itself
    (log10 d rounds to float64 by under 1.2e-16, less than error), and log10 v_i
    lies on the same side of it.
    """
    frac = x - np.floor(x)  # x % 1.0 for finite x, at a tenth of the cost
    digits = _digits_from_log10_fractions(frac)
    edge_gap = np.minimum(frac - _DIGIT_EDGES[digits - 1], _DIGIT_EDGES[digits] - frac)
    for i in np.flatnonzero(edge_gap < 2 * error):
        digits[i] = _settled_digit(value(i), x[i])
    return digits


def _settled_digit(v, x: float):
    """The digit of one value next to a digit edge, x close to its log10: an
    int divided down exactly, a real by the guarded rule on `math.log10`'s
    own fraction."""
    if isinstance(v, int):
        q = v // 10 ** max(int(x) - 16, 0)
        while q >= 10:
            q //= 10
        return q
    frac = np.float64(math.log10(v)) % 1.0
    return 1 if frac >= 1 - _BOUNDARY_EPS else _digits_from_log10_fractions(frac + _BOUNDARY_EPS)


def _is_integral(v) -> bool:
    """An integer, or a float with an integral value."""
    return isinstance(v, Integral) or (isinstance(v, float) and v.is_integer())


def first_digit_int(n) -> int:
    """Leading decimal digit of a positive integer, computed exactly."""
    if not isinstance(n, Integral):
        raise TypeError(f"expected an integer, got {type(n).__name__}")
    return int(_first_digits([int(n)])[0])


def first_digit_real(x: float) -> int:
    """Leading decimal digit of a positive real.

    Computed as floor(10**frac(log10 x)) via boundary comparison in log
    space; a value within 1e-12 (in log10) below a digit bound d·10^k
    reports d, so 0.3 reports 3 and a hair below 10^k reports 1.
    """
    return int(_first_digits([float(x)])[0])


@dataclass(frozen=True)
class DigitHistogram:
    """Observed counts of first digits 1..9 for a dataset."""

    counts: tuple

    def __post_init__(self):
        if len(self.counts) != 9:
            raise ValueError(f"expected 9 counts, got {len(self.counts)}")
        for c in self.counts:
            if not _is_integral(c):
                raise ValueError(f"counts must be integers, got {c!r}")
        counts = tuple(int(c) for c in self.counts)
        for c in counts:
            if c < 0:
                raise ValueError(f"negative count {c}")
        object.__setattr__(self, "counts", counts)

    @property
    def sample_size(self) -> int:
        return sum(self.counts)

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "DigitHistogram":
        return cls(counts)

    def frequencies(self) -> np.ndarray:
        """Counts over sample_size; all zeros for an empty histogram."""
        return np.asarray(self.counts, dtype=float) / max(self.sample_size, 1)

    def percentages(self) -> np.ndarray:
        return 100.0 * self.frequencies()

    @classmethod
    def from_csv(cls, line: str) -> "DigitHistogram":
        """One CSV row holding the 9 counts: the reader of `fit --counts`."""
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 9:
            raise ValueError(f"expected 9 comma-separated counts, got {len(fields)}")
        return cls.from_counts([int(f) for f in fields])


def histogram(digits) -> DigitHistogram:
    """Tally first digits 1..9, a numpy array or any iterable of ints, bools,
    integral floats or numpy numbers: the one tally of every digit source.
    The first value outside 1..9 (2.5, "3", 0, 10**30) raises ValueError."""
    values = digits if isinstance(digits, np.ndarray) else list(digits)
    d = np.asarray(values)
    if d.size and (d.dtype.kind not in "biuf" or not (
            d.min() >= 1 and d.max() <= 9 and (d.dtype.kind != "f" or (d % 1 == 0).all()))):
        bad = next(v for v in values if np.asarray(v).dtype.kind not in "biuf"
                   or not 1 <= v <= 9 or v != int(v))
        raise ValueError(f"digit out of range 1..9: {bad!r}")
    return DigitHistogram.from_counts(np.bincount(d.astype(np.intp, copy=False),
                                                  minlength=10)[1:])


def _fraction_histogram(chunks) -> DigitHistogram:
    """The histogram of `_digits_from_log10_fractions` over chunks of
    fractions in [0, 1] and NaN.  A chunk is counted by cell; only the
    fractions in the eight rule cells (about 1% of a spread-out law's) go
    through the rule."""
    cells = np.zeros(_CELLS, dtype=np.int64)
    counts = np.zeros(10, dtype=np.int64)  # the rule cells' digits
    for frac in chunks:
        cell = np.fmin(frac * _CELLS, _CELLS - 1).astype(np.intp)  # the rule's own cell
        cells += np.bincount(cell, minlength=_CELLS)
        counts += np.bincount(_digits_from_log10_fractions(frac[_RULE_CELL[cell]]),
                              minlength=10)
    np.add.at(counts, _PLAIN_CELL_DIGIT, cells)  # the rule cells land on 0
    return DigitHistogram.from_counts(counts[1:])


def histogram_from_percentages(pct: Sequence[float], n: int) -> DigitHistogram:
    """Rebuild integer counts from published per-digit percentages.

    Rounds n*pct/100 per digit, then reconciles the total to exactly n by
    largest-remainder adjustment (ties broken toward the lower digit).
    Inputs that would need to move more than one count per digit are
    rejected as inconsistent, as are percentages outside [0, 100] and an
    n*pct/100 past the float range.
    """
    if len(pct) != 9:
        raise ValueError(f"expected 9 percentages, got {len(pct)}")
    infinite = [p for p in pct if not math.isfinite(p)]
    if infinite:
        raise ValueError(f"percentages must be finite, got {', '.join(map(str, infinite))}")
    if any(p < 0 for p in pct):
        raise ValueError("percentages must be non-negative")
    over = [p for p in pct if p > 100]
    if over:
        raise ValueError(f"percentages must be at most 100, got {', '.join(map(str, over))}")
    if not _is_integral(n):
        raise ValueError(f"sample size must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")

    try:
        raw = [n * float(p) / 100.0 for p in pct]
    except OverflowError:  # n past the float range
        raw = [math.inf] * 9
    overflow = [p for p, r in zip(pct, raw) if not math.isfinite(r)]
    if overflow:  # as p <= 100, n is then past 1e306, too long to print in full
        raise ValueError(f"n * p / 100 must be finite, got p = {overflow[0]} and n above 1e306")
    base = [math.floor(r + 0.5) for r in raw]
    deficit = n - sum(base)
    if abs(deficit) > 9:
        raise ValueError(
            f"percentages are inconsistent with n={n}: "
            f"rounded counts are off by {-deficit}"
        )
    # move one count per digit toward n, first where rounding moved furthest away
    step = 1 if deficit > 0 else -1
    counts = list(base)
    order = sorted(range(9), key=lambda i: (step * (base[i] - raw[i]), i))
    for i in order[:abs(deficit)]:
        counts[i] += step
        if counts[i] < 0:
            raise ValueError("percentages are inconsistent with n")
    return DigitHistogram.from_counts(counts)
