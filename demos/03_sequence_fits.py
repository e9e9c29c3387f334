"""Minimum chi-square fits of the generalized laws to real sequences.

For each surveyed sequence the package minimizes the Pearson chi-square
over the law's parameters (a golden-section search on every cell of a c-grid for
TSPB's c; a profile over log alpha, then a Newton polish from each start,
for PB's alpha, beta).
Degrees of freedom are 8/7/6 for Benford/TSPB/PB.  The striking case is
the primes: hopeless under Benford, but beautifully fit by PB - until the
sequence gets long.
"""
from genbenford import (
    Benford,
    SequenceSpec,
    digit_histogram_of,
    fit,
    fit_pb,
    fit_tspb,
    load_survey,
)

print(f"{'sequence':<18s} {'n':>6s} | {'Benford':>16s} | {'TSPB':>22s} | {'PB':>30s}")
print(f"{'':<18s} {'':>6s} | {'chi2':>8s} {'p%':>7s} | {'c':>7s} {'chi2':>7s} "
      f"{'p%':>6s} | {'alpha':>9s} {'beta':>6s} {'chi2':>6s} {'p%':>6s}")

for row in load_survey():
    if row.key not in ("square", "prime-100", "prime-1000", "prime-10000",
                       "mixing", "fibonacci", "pentagonal"):
        continue
    hist = row.histogram()
    b = fit(hist, Benford)
    t = fit_tspb(hist)
    p = fit_pb(hist, m=row.series_m)
    print(f"{row.label:<18s} {row.n:>6d} | "
          f"{b.chi_square:8.3f} {100 * b.p_value:7.2f} | "
          f"{t.model.c:7.4f} {t.chi_square:7.3f} {100 * t.p_value:6.2f} | "
          f"{p.model.alpha:9.4g} {p.model.beta:6.3f} "
          f"{p.chi_square:6.3f} {100 * p.p_value:6.2f}")

# Primes below 1000 and 10000 are rejected outright by Benford and TSPB
# (p ~ 0) yet accepted by PB with p above 75%.  Push the cutoff to a
# million, though, and even PB breaks down:
print()
print("The large-prime breakdown:")

hist = digit_histogram_of(SequenceSpec("primes_below", 1_000_000))
fit = fit_pb(hist, m=100)
print(f"  primes below 1e6 (n = {hist.sample_size:,}): minimized PB chi2 = "
      f"{fit.chi_square:.1f}, p = {fit.p_value:.2e}")
print("  the PB fit only works for short prime sequences.")
