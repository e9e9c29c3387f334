"""How fast the host runs right now, from a fixed reference computation.

The host this benchmark was built on shares its CPUs: for seconds to
minutes at a time one thread runs up to 1.8x slower, and the workloads and
the reference computation below slow together (over three minutes of
`fits` rounds their times correlate at 0.97).  No run can average over a
slow spell that lasts longer than the run, so the worker scales each
operation's time by `(REFERENCE_S / r) ** k`, where r is the time of the
reference computation while the operation ran and k is how far the
workload's time follows it (`workloads.HOST_EXPONENT`; 1 for most): a
scaled time estimates what the operation would take on a host that runs
the reference computation in `REFERENCE_S` seconds.  The computation uses
none of genbenford, so a change to the program does not move it, and a
change that makes the program slower makes its scaled time slower by the
same share.

The computation is a scipy Nelder-Mead fit and the Hurwitz zeta function
over an array, about half the time each.  Candidates were timed every
0.2 s while the workloads ran, on that host; against the time of the
operations around them (correlation, slope in log-log terms):

| candidate | `fits` round | survey catalan row | `sequences` round |
|---|---|---|---|
| Nelder-Mead fit | 0.89, 0.88 | 0.84, 0.84 | 0.90, 1.7 |
| zeta over 8000 points | 0.74, 1.00 | 0.92, 1.01 | 0.91, 2.0 |
| the two together | 0.86, 1.03 | | 0.93, 2.0 |
| pure-Python integer loop | 0.69, 1.19 | 0.64, 0.68 | 0.54, 1.1 |
| big-integer products | 0.77, 1.63 | 0.83, 0.79 | 0.72, 1.5 |
| numpy over 9 x 5000 arrays | 0.73, 1.07 | 0.85, 0.58 | 0.75, 0.8 |
| numpy over 9-element arrays | 0.77, 0.79 | 0.78, 0.72 | 0.88, 2.0 |

Scaling by the two together halved the spread of `fits` rounds (8.2% to
4.1%).  The slopes change from one slow spell to another: over later
sets of ten runs, `survey` and `sequences` followed the reference by a
slope nearer 0.5-0.75, which `workloads.HOST_EXPONENT` records.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np
from scipy.optimize import minimize
from scipy.special import zeta

# median time of `reference()` on the host the reference figures in
# README.md come from
REFERENCE_S = 0.0085
# seconds between two passes of the reference computation while operations run
PERIOD_S = 0.2

_ZETA_X = np.linspace(1.0, 5.0, 12_000)


def _rosenbrock(x):
    return (1.0 - x[0]) ** 2 + 10.0 * (x[1] - x[0] ** 2) ** 2


def reference() -> float:
    """One pass of the reference computation; returns a checksum."""
    acc = 0.0
    for start in ([-1.0, 1.5], [1.5, -1.0]):
        acc += float(minimize(_rosenbrock, start, method="Nelder-Mead").fun)
    return acc + float(zeta(1.5, _ZETA_X).sum())


class Speedometer:
    """While entered, a timer signal runs one pass of `reference()` every
    `PERIOD_S` seconds, in the main thread, between two bytecodes of
    whatever runs.  `now()` is a clock that stands still during those
    passes, so spans timed with it leave them out."""

    def __init__(self):
        self.paused = 0.0
        self._at = []      # now() at each pass
        self._took = []    # seconds the pass took
        self._previous = None

    def now(self) -> float:
        return perf_counter() - self.paused

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference()
        took = perf_counter() - t0
        self._at.append(t0 - self.paused)
        self._took.append(took)
        self.paused += perf_counter() - t0

    def __enter__(self):
        reference()  # the first pass pays for lazy set-up in scipy
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        return False

    def reference_s(self, t0: float, t1: float) -> float:
        """Median time of the passes made between t0 and t1 on the `now()`
        clock, together with the last one before and the first one after."""
        lo = max(bisect.bisect_left(self._at, t0) - 1, 0)
        hi = bisect.bisect_right(self._at, t1) + 1
        return statistics.median(self._took[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Factor that takes a span from t0 to t1 to the reference speed."""
        return REFERENCE_S / self.reference_s(t0, t1)
