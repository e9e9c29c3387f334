"""Certify digit_histogram_of on every sequence kind at the benchmark's sizes,
and the Ulam and lucky terms past them.

    PYTHONPATH=src python tests/digits_corpus.py

Tallies digit_histogram_of for the 13 kinds (squares, cubes, pentagonal
and square_roots at 500,000 terms; primes below 10^6, 2,000,000 - 1,
2,000,000 and 10^7; fibonacci at 20,000, 30,000 and 50,000; catalan at
3,000, 8,000 and 12,000; bell at 600 and 2,000; partition at 6,000 and
20,000; lucky 5,000; ulam 2,000; keith; idoneal) and compares each with counts made apart from the
library's digit code: oracles.leading_digit, by integer comparison, for
every int term (squares, cubes and pentagonal numbers by their formulas,
Fibonacci numbers by oracles.fibonacci_list, the other kinds as the
library generates them), and for square roots the exact rule that sqrt(n)
starts with isqrt(n // 100^k) for 100^k <= n < 100^(k+1).  The primes
are counted a second way too: oracles.prime_digit_counts, by bisection
over oracles.sieve_primes.

digit_histogram_of lists no term of the kinds it counts (squares, cubes,
pentagonal numbers and square roots at the digit edges, primes from the
odd sieve, Fibonacci and Catalan numbers from float logs) beyond a short
head of Bell and partition numbers, whose later terms it reads off float
logs too, so the listing path (_first_digits over the generated terms,
_HISTOGRAM_CHUNK at a time) is checked against the same counts at those
kinds' sizes too.  At 10^12
terms, past any listing, the four edge-counted kinds are checked against
oracles.root_digit_counts, which counts by integer roots.
Ulam and lucky numbers, which only the listing path tallies, are checked
term by term too: ulam(5,000) against oracles.ulam_by_definition, which
scans every candidate (about 3 s), and lucky(20,000) against
oracles.lucky_by_mask, a numpy sieve.
Prints one line per check and exits 1 on any mismatch.  pytest does not
collect this file; the run takes about 11 s.
"""
import sys
import time

from oracles import (fibonacci_list, leading_digit, lucky_by_mask, prime_digit_counts,
                     root_digit_counts, sieve_primes, sqrt_leading_digit, ulam_by_definition)

from genbenford import SequenceSpec, digit_histogram_of, generate, lucky, ulam
from genbenford.sequences import _COUNTED, _listed_histogram

PRIME_BOUNDS = (10 ** 6, 2 * 10 ** 6 - 1, 2 * 10 ** 6, 10 ** 7)
CORPUS = [("squares", 500_000), ("cubes", 500_000), ("pentagonal", 500_000),
          ("square_roots", 500_000), *(("primes_below", b) for b in PRIME_BOUNDS),
          ("fibonacci", 20_000), ("fibonacci", 30_000), ("fibonacci", 50_000),
          ("catalan", 3_000), ("catalan", 8_000), ("catalan", 12_000), ("bell", 600),
          ("bell", 2_000), ("partition", 6_000), ("partition", 20_000), ("lucky", 5_000), ("ulam", 2_000), ("keith", 71),
          ("idoneal", 0)]
EDGE_COUNTED = ("squares", "cubes", "pentagonal", "square_roots")
UNLISTED = 10 ** 12
# the listed kinds whose terms are checked themselves, past the benchmark's sizes
TERMS = [("ulam", ulam, ulam_by_definition, 5_000), ("lucky", lucky, lucky_by_mask, 20_000)]


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
    elif kind == "fibonacci":
        terms = fibonacci_list(param)
    else:  # the generators have their own oracle tests
        terms = list(generate(SequenceSpec(kind, param)))
    assert all(isinstance(t, int) and t >= 1 for t in terms), kind
    return tally(map(leading_digit, terms))


def checks():
    """(label, counts the library gives, counts the oracle gives)"""
    for kind, param in CORPUS:
        spec = SequenceSpec(kind, param)
        want = expected_counts(kind, param)
        yield f"{kind}({param})", digit_histogram_of(spec).counts, want
        if kind in _COUNTED:
            yield f"{kind}({param}) listing path", _listed_histogram(spec).counts, want
    primes = sieve_primes(max(PRIME_BOUNDS))
    for bound in PRIME_BOUNDS:
        yield (f"primes_below({bound}) by bisection",
               digit_histogram_of(SequenceSpec("primes_below", bound)).counts,
               prime_digit_counts(bound, primes))
    for kind in EDGE_COUNTED:
        yield (f"{kind}({UNLISTED})", digit_histogram_of(SequenceSpec(kind, UNLISTED)).counts,
               root_digit_counts(kind, UNLISTED))
    for kind, generator, oracle, count in TERMS:
        yield f"{kind}({count}) terms", generator(count), oracle(count)


def shown(got: list, want: list) -> str:
    """A histogram in full; a term list by its length and first difference."""
    if len(want) == 9:
        return f"{got}" + ("" if got == want else f" != {want}")
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    return f"{len(got)} terms" + ("" if got == want else
                                  f" != {len(want)}, first difference at index {first}")


def main() -> int:
    start = time.perf_counter()
    total = mismatches = 0
    for label, got, want in checks():
        got, want = list(got), list(want)
        status = "ok" if got == want else "MISMATCH"
        total += 1
        mismatches += got != want
        print(f"{status} {label}: {shown(got, want)}")
    print(f"{total} checks, {mismatches} mismatches; "
          f"time: {time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
