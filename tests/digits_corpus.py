"""Certify digit_histogram_of on every sequence kind at the benchmark's sizes.

    PYTHONPATH=src python tests/digits_corpus.py

Tallies digit_histogram_of for the 13 kinds (squares, cubes, pentagonal
and square_roots at 500,000 terms; primes below 2,000,000; fibonacci at
20,000 and 30,000; catalan at 3,000 and 8,000; bell 600; partition 6,000;
lucky 5,000; ulam 2,000; keith; idoneal) and compares each with counts
made apart from the library's digit code: oracles.leading_digit, by
integer comparison, for every int term (squares, cubes and pentagonal
numbers by their formulas, the other kinds as the library generates them),
and for square roots the exact rule that sqrt(n) starts with
isqrt(n // 100^k) for 100^k <= n < 100^(k+1).
Prints one line per kind and exits 1 on any mismatch.  pytest does not
collect this file; the run takes a few seconds.
"""
import math
import sys
import time

from oracles import leading_digit

from genbenford import SequenceSpec, digit_histogram_of, generate

CORPUS = [("squares", 500_000), ("cubes", 500_000), ("pentagonal", 500_000),
          ("square_roots", 500_000), ("primes_below", 2_000_000),
          ("fibonacci", 20_000), ("fibonacci", 30_000), ("catalan", 3_000),
          ("catalan", 8_000), ("bell", 600), ("partition", 6_000), ("lucky", 5_000),
          ("ulam", 2_000), ("keith", 71), ("idoneal", 0)]


def sqrt_leading_digit(n: int) -> int:
    """First digit of sqrt(n) for an int n >= 1: with 100^k <= n < 100^(k+1),
    sqrt(n) / 10^k lies in [1, 10) and its floor is isqrt(n // 100^k)."""
    k = 0
    while 100 ** (k + 1) <= n:
        k += 1
    return math.isqrt(n // 100 ** k)


POLYNOMIALS = {"squares": lambda n: n * n, "cubes": lambda n: n ** 3,
               "pentagonal": lambda n: n * (3 * n - 1) // 2}


def tally(digits) -> list:
    counts = [0] * 9
    for d in digits:
        counts[d - 1] += 1
    return counts


def expected_counts(kind: str, param: int) -> list:
    if kind == "square_roots":
        return tally(map(sqrt_leading_digit, range(1, param + 1)))
    if kind in POLYNOMIALS:
        terms = list(map(POLYNOMIALS[kind], range(1, param + 1)))
    else:  # the generators have their own oracle tests
        terms = list(generate(SequenceSpec(kind, param)))
    assert all(isinstance(t, int) and t >= 1 for t in terms), kind
    return tally(map(leading_digit, terms))


def main() -> int:
    start = time.perf_counter()
    mismatches = 0
    for kind, param in CORPUS:
        got = list(digit_histogram_of(SequenceSpec(kind, param)).counts)
        want = expected_counts(kind, param)
        status = "ok" if got == want else "MISMATCH"
        mismatches += got != want
        print(f"{status} {kind}({param}): {got}" + ("" if got == want else f" != {want}"))
    print(f"{len(CORPUS)} histograms, {mismatches} mismatches; "
          f"time: {time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
