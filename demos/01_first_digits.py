"""First digits of integer sequences, and how unevenly they spread.

Leading digits of naturally-growing sequences are far from uniform: small
digits dominate.  This script extracts exact first digits from a few classic
sequences (including numbers far beyond 64-bit range) and compares each
histogram against the Benford distribution.
"""
import numpy as np

from genbenford import (
    Benford,
    SequenceSpec,
    chi_square_stat,
    chi_square_sf,
    digit_histogram_of,
    fibonacci,
    first_digit_int,
)

# The 100th Fibonacci number has 21 digits; the first-digit extraction is
# exact integer arithmetic, so there is no float rounding to worry about.
fib100 = list(fibonacci(100))[-1]
print(f"F(100) = {fib100}")
print(f"first digit: {first_digit_int(fib100)}\n")

# Tally first digits for several sequences and line them up against Benford.
specs = {
    "squares 1..100": SequenceSpec("squares", 100),
    "primes < 10000": SequenceSpec("primes_below", 10000),
    "fibonacci 1..100": SequenceSpec("fibonacci", 100),
    "catalan (first 100)": SequenceSpec("catalan", 100),
}

benford = Benford().pmf()
print(f"{'digit':>20s}: " + " ".join(f"{d:>5d}" for d in range(1, 10)))
print(f"{'benford %':>20s}: " + " ".join(f"{100 * p:5.1f}" for p in benford))
for name, spec in specs.items():
    hist = digit_histogram_of(spec)
    print(f"{name:>20s}: " + " ".join(f"{p:5.1f}" for p in hist.percentages()))

print()
print("Pearson chi-square against Benford (8 degrees of freedom):")
for name, spec in specs.items():
    hist = digit_histogram_of(spec)
    chi2 = chi_square_stat(hist, benford)
    p = chi_square_sf(chi2, 8)
    verdict = "consistent" if p > 0.05 else "rejected at 5%"
    print(f"  {name:>20s}: chi2 = {chi2:7.3f}, p = {100 * p:6.2f}%  ({verdict})")

# Fibonacci numbers hug Benford's law tightly; squares visibly do not, and
# primes drift toward a flat digit distribution as the cutoff grows.
