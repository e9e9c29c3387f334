"""Certify fit_pb's search against the dense-grid oracle on a fixed corpus.

    PYTHONPATH=src python tests/fit_pb_corpus.py [--seed N]

Fits 657 fixed-seed histograms with fit_pb and with
oracles.pb_dense_grid_min, and exits 1 if any fit_pb chi-square is worse
than the oracle's by more than 1e-9 or is not exactly the chi-square of
the law the fit reports.  The corpus is the 19 survey rows at m = 100,
1000 and 5000, then multinomial draws from PB, TSPB, Dirichlet and Benford
pmfs with n from 25 to 1e6, then 300 histograms of n <= 40 with emptied
cells; each draw's m cycles through 100, 1000 and 5000.  The draws come
from seed 20240811; `--seed N` draws a held-out corpus from seed N
instead, to judge a change of the fitter on histograms it was not tuned
on (CI runs seeds 7, 11, 13, 17, 41 and 43 too).  It prints each failing
fit and the count of each failure, then the fit_pb evaluations by stage
(the profile's table and golden sections, the Newton polishes), the polishes
per fit and the objective calls: a call costs a fixed overhead beyond its
points, so a cut in points can be told apart from a cut in steps.  Last
it prints the run's time and the part of it spent in fit_pb itself.
pytest does not collect this file: a run takes about 35 s on a 2-CPU
x86-64 host, most of it in the oracle.
"""
import argparse
import sys
import time

import numpy as np

from oracles import pb_dense_grid_min

import genbenford.fitting as fitting
from genbenford import PB, TSPB, Benford, DigitHistogram, chi_square_stat, fit_pb, load_survey

TOLERANCE = 1e-9
MS = (100, 1000, 5000)
SEED = 20240811


def _draw_pmf(rng, kind):
    if kind == "pb":
        return PB(float(np.exp(rng.uniform(-3, 8))), float(np.exp(rng.uniform(-3, 6))),
                  int(rng.choice(MS))).pmf()
    if kind == "tspb":
        return TSPB(float(rng.uniform(0.1, 10))).pmf()
    if kind == "dirichlet":
        return rng.dirichlet(np.full(9, np.exp(rng.uniform(-1, 3))))
    return Benford().pmf()


def _multinomial(rng, n, pmf):
    return rng.multinomial(n, pmf / pmf.sum()).tolist()


def corpus(seed=SEED):
    """(label, counts, m) for every histogram of the corpus, in a fixed order."""
    for row in load_survey():
        for m in MS:
            yield f"survey {row.key}", list(row.histogram().counts), m
    rng = np.random.default_rng(seed)
    draws = [("pb", 150), ("tspb", 60), ("dirichlet", 60), ("benford", 30)]
    i = 0
    for kind, count in draws:
        for _ in range(count):
            n = int(round(10 ** rng.uniform(np.log10(25), 6)))
            yield f"{kind} n={n}", _multinomial(rng, n, _draw_pmf(rng, kind)), MS[i % 3]
            i += 1
    for _ in range(300):
        kind = rng.choice(["pb", "tspb", "dirichlet", "benford"])
        counts = np.array(_multinomial(rng, int(rng.integers(1, 41)), _draw_pmf(rng, kind)))
        counts[rng.choice(9, size=int(rng.integers(1, 8)), replace=False)] = 0
        if counts.sum() == 0:
            counts[int(rng.integers(9))] = 1
        yield f"small {kind} n={counts.sum()}", counts.tolist(), MS[i % 3]
        i += 1


def _fit_pb_counting(hist, m):
    """fit_pb(hist, m), its objective calls, and its polishes and the
    points they scored."""
    calls, polishes = [], []
    saved = {name: getattr(fitting, name) for name in ("_objective", "_newton_polish")}

    def counting(hist, probs_of):
        f = saved["_objective"](hist, probs_of)
        return lambda x: calls.append(None) or f(x)

    def newton_polish(f, x):
        result = saved["_newton_polish"](f, x)
        polishes.append(result[2])
        return result

    fitting._objective, fitting._newton_polish = counting, newton_polish
    try:
        return fit_pb(hist, m=m), len(calls), polishes
    finally:
        for name, f in saved.items():
            setattr(fitting, name, f)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=SEED,
                        help=f"the seed of the drawn histograms (default {SEED})")
    seed = parser.parse_args().seed
    start = time.perf_counter()
    fitting_s = 0.0
    fits = worse = inexact = evaluations = calls = polishes = polish_points = 0
    largest = -np.inf
    for label, counts, m in corpus(seed):
        hist = DigitHistogram.from_counts(counts)
        fit_start = time.perf_counter()
        fit, fit_calls, fit_polishes = _fit_pb_counting(hist, m)
        fitting_s += time.perf_counter() - fit_start
        oracle = pb_dense_grid_min(counts, m)
        excess = fit.chi_square - oracle
        fits += 1
        evaluations += fit.evaluations
        calls += fit_calls
        polishes += len(fit_polishes)
        polish_points += sum(fit_polishes)
        largest = max(largest, excess)
        if excess > TOLERANCE:
            worse += 1
            print(f"WORSE {label} m={m} counts={counts}: fit_pb {fit.chi_square!r}, "
                  f"oracle {oracle!r}")
        reported = chi_square_stat(hist, fit.model.pmf())
        if fit.chi_square != reported:
            inexact += 1
            print(f"INEXACT {label} m={m} counts={counts}: fit_pb {fit.chi_square!r}, "
                  f"its law {reported!r}")
    print(f"{fits} histograms, {worse} fits worse than the oracle by more than "
          f"{TOLERANCE:g} (largest excess {largest:.3g}), {inexact} fits whose "
          "chi-square is not that of the law they report")
    print(f"fit_pb evaluations: {evaluations} (profile table and golden sections "
          f"{evaluations - polish_points}, polishes {polish_points}), "
          f"{polishes / fits:.2f} polishes per fit, objective calls: {calls}")
    print(f"time: {time.perf_counter() - start:.1f} s, of which fit_pb {fitting_s:.1f} s")
    return 1 if worse or inexact else 0


if __name__ == "__main__":
    sys.exit(main())
