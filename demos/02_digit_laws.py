"""The three digit laws and how the generalizations embed Benford's law.

TSPB adds one shape parameter c and collapses to Benford at both c = 1 and
c = 2.  PB adds a two-sided power-law pair (alpha, beta) and approaches
Benford as beta -> 1 with alpha large.  PB's infinite series is truncated
at an index m, losing a known amount of mass: beta/(alpha+beta)(m+1)^-alpha.
"""
import numpy as np

from genbenford import PB, TSPB, Benford, adaptive_truncation

benford = Benford().pmf()

print("TSPB sweeps a family through Benford's law:")
print(f"{'c':>6s}: " + " ".join(f"{d:>6d}" for d in range(1, 10)))
for c in (0.5, 1.0, 1.5, 2.0, 3.0):
    row = TSPB(c).pmf()
    tag = "  <- Benford" if np.abs(row - benford).max() < 1e-14 else ""
    print(f"{c:6.2f}: " + " ".join(f"{p:6.4f}" for p in row) + tag)

print()
print("PB approaches Benford as beta -> 1, alpha -> infinity:")
for alpha in (2.0, 100.0, 1e6):
    gap = np.abs(PB(alpha=alpha, beta=1.0, m=10_000).pmf() - benford).max()
    print(f"  alpha = {alpha:>9.0f}: max |PB - Benford| = {gap:.2e}")

print()
print("Truncating the PB series costs a closed-form amount of mass:")
alpha, beta = 2.0, 1.0
for m in (10, 100, 1000):
    law = PB(alpha=alpha, beta=beta, m=m)
    total, deficit = law.pmf().sum(), law.deficit()
    print(f"  m = {m:>5d}: sum of pmf = {total:.12f}, "
          f"deficit = {deficit:.3e}, sum + deficit = {total + deficit:.12f}")

# The adaptive mode picks the smallest m that pushes the deficit under 1e-10.
# For small alpha the tail decays slowly and m gets astronomically large;
# the series is summed by Euler-Maclaurin in time that does not grow with m,
# so this stays instant.
print()
for alpha, beta in ((2.0, 1.0), (1.0, 1.0), (0.7, 1.7)):
    m = adaptive_truncation(alpha, beta)
    print(f"  adaptive m for alpha={alpha}, beta={beta}: m = {m:,} "
          f"(deficit {PB(alpha, beta, m).deficit():.2e})")
