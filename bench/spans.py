"""Spans and counters around genbenford's public functions, from outside.

`Tracer.install()` replaces each traced function by a wrapper in every
genbenford module namespace that holds it (so `from .x import f` bindings
are covered too).  A wrapper times its call as a span on a stack: a span's
busy time is its duration minus the part its child spans cover, so the busy
times of nested layers add up without double counting.  The wrapper's own
bookkeeping, counters included, is charged to neither the span nor its
parent.

Generator functions (most sequence kinds) return their iterator at once;
the wrapper hands back an iterator whose every step is a span of the kind,
so the time spent producing terms lands on the generator, not on whoever
consumes it.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

from oracles import decimal_digits

SEQUENCE_KINDS = ("squares", "cubes", "square_roots", "primes_below", "pentagonal",
                  "fibonacci", "catalan", "bell", "partition", "lucky", "ulam",
                  "keith", "idoneal")

# pb_vector spans are split into small and large truncations at this m
PB_LARGE_M = 5000


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock               # seconds; the worker's leaves out its own work
        self.stats = defaultdict(float)  # metric name -> value, since reset
        self.fit_pb_ms = []              # duration of each fit_pb call
        self._stack = []                 # child time covered, per open span

    def reset(self):
        self.stats = defaultdict(float)
        self.fit_pb_ms = []

    # -- spans -------------------------------------------------------------

    def _call(self, names, fn, args, kwargs, counters=None):
        clock = self.clock
        t_in = clock()
        stack = self._stack
        stack.append(0.0)
        ok = False
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = clock()
            busy = t1 - t0 - stack.pop()
            stats = self.stats
            for name in names:
                stats[name + ".busy_s"] += busy
                stats[name + ".calls"] += 1
            if ok and counters is not None:
                counters(args, result, t1 - t0)
            if stack:
                stack[-1] += clock() - t_in

    def _wrap(self, fn, names_of, counters=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(names_of(args, kwargs), fn, args, kwargs, counters)
        return wrapper

    def _wrap_sequence(self, fn, kind):
        name = "sequences." + kind
        tracer = self

        class Steps:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                value = tracer._call((name,), next, (self.inner,), {})
                tracer.stats[name + ".terms"] += 1
                return value

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call((name,), fn, args, kwargs)
            if isinstance(result, list):
                self.stats[name + ".terms"] += len(result)
                return result
            return Steps(result)
        return wrapper

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(module, name, wrapper factory) for every traced function."""
        def fixed(name):
            return lambda args, kwargs: (name,)

        def fit_pb_names(args, kwargs):
            m = _arg(args, kwargs, 1, "m", 1000)
            return ("fitting.fit_pb", f"fitting.fit_pb.m{m}")

        def pb_vector_names(args, kwargs):
            m = _arg(args, kwargs, 2, "m", 1000)
            size = "large_m" if m > PB_LARGE_M else "small_m"
            return ("distributions.pb_vector", "distributions.pb_vector." + size)

        def fit_pb_counts(args, result, seconds):
            self.stats["fitting.fit_pb.evaluations"] += result.evaluations
            self.stats[f"fitting.fit_pb.m{result.model.m}.evaluations"] += result.evaluations
            self.fit_pb_ms.append(1e3 * seconds)

        def fit_tspb_counts(args, result, seconds):
            self.stats["fitting.fit_tspb.evaluations"] += result.evaluations

        def verification_counts(args, result, seconds):
            self.stats["sampling.samples"] += result.n_samples

        def int_counts(args, result, seconds):
            self.stats["digits.values"] += 1
            self.stats["digits.decimal_digits"] += decimal_digits(int(args[0]))

        def real_counts(args, result, seconds):
            self.stats["digits.values"] += 1

        targets = [
            ("cli", "main", lambda fn: self._wrap(fn, fixed("cli.main"))),
            ("reference", "load_survey",
             lambda fn: self._wrap(fn, fixed("reference.load_survey"))),
            ("fitting", "fit_pb",
             lambda fn: self._wrap(fn, fit_pb_names, fit_pb_counts)),
            ("fitting", "fit_tspb",
             lambda fn: self._wrap(fn, fixed("fitting.fit_tspb"), fit_tspb_counts)),
            ("fitting", "goodness_of_fit",
             lambda fn: self._wrap(fn, fixed("fitting.goodness_of_fit"))),
            ("distributions", "pb_vector", lambda fn: self._wrap(fn, pb_vector_names)),
            ("distributions", "tspb_vector",
             lambda fn: self._wrap(fn, fixed("distributions.tspb_vector"))),
            ("distributions", "adaptive_truncation",
             lambda fn: self._wrap(fn, fixed("distributions.adaptive_truncation"))),
            ("sampling", "verification_report",
             lambda fn: self._wrap(fn, fixed("sampling.verification_report"),
                                   verification_counts)),
            ("digits", "first_digit_int",
             lambda fn: self._wrap(fn, fixed("digits.first_digit_int"), int_counts)),
            ("digits", "first_digit_real",
             lambda fn: self._wrap(fn, fixed("digits.first_digit_real"), real_counts)),
            ("digits", "histogram", lambda fn: self._wrap(fn, fixed("digits.histogram"))),
        ]
        for kind in SEQUENCE_KINDS:
            targets.append(("sequences", kind,
                            lambda fn, kind=kind: self._wrap_sequence(fn, kind)))
        return targets

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "genbenford" or name.startswith("genbenford.")]
        for module_name, name, factory in self._targets():
            original = getattr(sys.modules["genbenford." + module_name], name)
            wrapper = factory(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
