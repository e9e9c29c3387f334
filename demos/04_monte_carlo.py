"""Where the generalized laws come from, checked by simulation.

Both laws arise from exponentiation: draw a random exponent W from a
power-law density, and the first digit of 10^W follows the corresponding
digit law exactly.  TSPB's exponent is the two-sided power law on (0, 2);
PB's is the double Pareto law, which is itself the state of a geometric
Brownian motion observed at an exponentially-distributed random time.
This script runs the whole pipeline and compares empirical digit
frequencies to the analytic mass functions.
"""
from genbenford import (
    PB,
    TSPB,
    GbmParams,
    adaptive_truncation,
    empirical_digit_pmf,
    first_digit_real,
    gbm_char_roots,
    sample_tspp,
    verification_report,
)

# A single draw, step by step: uniform -> exponent -> first digit of 10^W.
u = 0.3
w = sample_tspp(2.5, u)
print(f"u = {u} -> exponent W = {w:.6f} -> 10^W = {10 ** w:.4f} "
      f"-> first digit {first_digit_real(10 ** w)}\n")

# One million draws per model; per-digit z-scores should sit within a few
# sigma of zero if the closed-form laws are right.
for model in (TSPB(c=0.5), TSPB(c=3.0)):
    rep = verification_report(model, 1_000_000, seed=20240811)
    print(f"{model}: chi2 = {rep.chi_square:6.2f}, max |z| = {rep.max_abs_z:.2f}, "
          f"{'pass' if rep.passed() else 'FAIL'}")

for alpha, beta in ((2.0, 1.0), (0.7, 1.7)):
    m = adaptive_truncation(alpha, beta)
    model = PB(alpha=alpha, beta=beta, m=m)
    rep = verification_report(model, 1_000_000, seed=20240811)
    print(f"PB(alpha={alpha}, beta={beta}, m={m:,}): chi2 = {rep.chi_square:6.2f}, "
          f"max |z| = {rep.max_abs_z:.2f}, {'pass' if rep.passed() else 'FAIL'}")

# The double Pareto exponents are the roots of the growth model's
# characteristic equation: (sigma^2/2) z^2 + (mu - sigma^2/2) z = lambda.
print()
params = GbmParams(mu=0.05, sigma=0.4, lam=0.5)
alpha, beta = gbm_char_roots(params)
print(f"growth process mu={params.mu}, sigma={params.sigma}, "
      f"observation rate lambda={params.lam}")
print(f"  -> double Pareto exponents alpha = {alpha:.4f}, beta = {beta:.4f}")
print(f"  -> check: alpha*beta = {alpha * beta:.6f} vs 2*lam/sigma^2 = "
      f"{2 * params.lam / params.sigma ** 2:.6f}")

# Feed those exponents straight into the digit law: the first digits of a
# GBM observed at a random exponential time follow this PB distribution.
m = adaptive_truncation(alpha, beta)
digit_law = PB(alpha=alpha, beta=beta, m=m).pmf()
observed = empirical_digit_pmf(PB(alpha, beta, m), 200_000, 20240811).frequencies()
print()
print("digit   analytic   simulated")
for d in range(9):
    print(f"  {d + 1}     {digit_law[d]:.5f}    {observed[d]:.5f}")
