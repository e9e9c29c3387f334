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

digit_histogram_of counts squares, cubes, pentagonal numbers and square
roots at the digit edges, so at 500,000 terms the values path
(_first_digits over the generated terms, _HISTOGRAM_CHUNK at a time) is
checked against the same counts too.  At 10^12 terms, past any listing,
those four kinds are checked against oracles.root_digit_counts, which
counts by integer roots.
Prints one line per check and exits 1 on any mismatch.  pytest does not
collect this file; the run takes a few seconds.
"""
import sys
import time
from itertools import islice

import numpy as np
from oracles import leading_digit, root_digit_counts, sqrt_leading_digit

from genbenford import SequenceSpec, digit_histogram_of, generate, histogram
from genbenford.digits import _first_digits
from genbenford.sequences import _HISTOGRAM_CHUNK

CORPUS = [("squares", 500_000), ("cubes", 500_000), ("pentagonal", 500_000),
          ("square_roots", 500_000), ("primes_below", 2_000_000),
          ("fibonacci", 20_000), ("fibonacci", 30_000), ("catalan", 3_000),
          ("catalan", 8_000), ("bell", 600), ("partition", 6_000), ("lucky", 5_000),
          ("ulam", 2_000), ("keith", 71), ("idoneal", 0)]
EDGE_COUNTED = ("squares", "cubes", "pentagonal", "square_roots")
UNLISTED = 10 ** 12


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


def values_path_histogram(spec: SequenceSpec):
    values = iter(generate(spec))
    chunks = iter(lambda: list(islice(values, _HISTOGRAM_CHUNK)), [])
    return histogram(np.concatenate([_first_digits(chunk) for chunk in chunks]))


def checks():
    """(label, counts the library gives, counts the oracle gives)"""
    for kind, param in CORPUS:
        spec = SequenceSpec(kind, param)
        want = expected_counts(kind, param)
        yield f"{kind}({param})", digit_histogram_of(spec).counts, want
        if kind in EDGE_COUNTED:
            yield f"{kind}({param}) values path", values_path_histogram(spec).counts, want
    for kind in EDGE_COUNTED:
        yield (f"{kind}({UNLISTED})", digit_histogram_of(SequenceSpec(kind, UNLISTED)).counts,
               root_digit_counts(kind, UNLISTED))


def main() -> int:
    start = time.perf_counter()
    total = mismatches = 0
    for label, got, want in checks():
        got, want = list(got), list(want)
        status = "ok" if got == want else "MISMATCH"
        total += 1
        mismatches += got != want
        print(f"{status} {label}: {got}" + ("" if got == want else f" != {want}"))
    print(f"{total} histograms, {mismatches} mismatches; "
          f"time: {time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
