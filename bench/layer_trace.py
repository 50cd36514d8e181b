"""Outside-in layer trace: wrap public functions of ``patrol.*`` with spans.

The program itself records nothing.  While a ``LayerTrace`` is installed,
every module namespace that holds one of the wrapped functions (including
names imported with ``from .x import y``) points at a wrapper that times
the call.  Spans nest, so a layer's self time is its span minus the time
of the wrapped calls made inside it.  ``Metric.distance`` is patched on
the class and only counted, because timing half a million tiny calls
would cost more than the calls themselves.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function, result counter): every wrapped call records
# "<module>.<function>.calls" and ".s"; a result counter adds more counts.
TIMED = (
    ("instance", "load_instance", None),
    ("metric_core", "tree_cover", None),
    ("metric_core", "mst", None),
    ("metric_scheduler", "k_robot_assignment", "accepted"),
    ("metric_scheduler", "lower_bound_metric", None),
    ("metric_scheduler", "single_robot_schedule", None),
    ("oracles", "exact_tree_cover", None),
    ("oracles", "exact_interval_cover", None),
    ("time_window", "construct_schedule", "accepted"),
    ("time_window", "enumerate_atomics", "time_window.atomics"),
    ("time_window", "candidate_window_lengths", "time_window.candidates"),
    ("time_window", "validate_standard", None),
    ("time_window", "cyclify", None),
    ("line_uniform", "min_interval_cover", None),
    ("evaluate", "validate_speed", None),
    ("evaluate", "max_weighted_latency", None),
    ("schedule", "load_schedule", None),
    ("schedule", "dump_schedule", None),
    ("report", "build_report", None),
)
COUNTED = (("time_window", "concat"),)


class LayerTrace:
    """Span and counter recorder over the wrapped ``patrol`` functions."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.top_s = 0.0  # time inside spans opened with no span open
        self.evaluated: list = []  # (schedule, instance) given to the evaluator
        self._stack: list[list[float]] = []
        self._open: Counter = Counter()

    def _timed(self, key: str, fn, result_counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time of wrapped calls made inside this span
            self._stack.append(frame)
            self._open[key] += 1
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._stack.pop()
                self._open[key] -= 1
                self.self_s[key] += elapsed - frame[0]
                if not self._open[key]:
                    self.inclusive_s[key] += elapsed
                if self._stack:
                    self._stack[-1][0] += elapsed
                else:
                    self.top_s += elapsed
            self.counts[key + ".calls"] += 1
            if result_counter == "accepted":
                self.counts[key + ".accepted"] += result is not None
            elif result_counter:
                self.counts[result_counter] += len(result)
            if key == "evaluate.max_weighted_latency":
                self.evaluated.append((args[0], args[1]))
            return result

        return wrapper

    def _counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every ``patrol`` namespace for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "patrol" or name.startswith("patrol.")]

        def patch(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapper)

        for mod_name, fn_name, result_counter in TIMED:
            original = getattr(importlib.import_module("patrol." + mod_name), fn_name)
            patch(original, self._timed(f"{mod_name}.{fn_name}", original, result_counter))
        for mod_name, fn_name in COUNTED:
            original = getattr(importlib.import_module("patrol." + mod_name), fn_name)
            patch(original, self._counted(f"{mod_name}.{fn_name}.calls", original))
        metric_cls = importlib.import_module("patrol.instance").Metric
        undo.append((metric_cls, "distance", metric_cls.distance))
        metric_cls.distance = self._counted("instance.distance.calls", metric_cls.distance)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def evaluator_work(self) -> tuple[int, int]:
        """(legs, leg-site pairs) of every schedule the evaluator measured,
        computed after the fact from the expanded schedules: the evaluator
        scans every site for every leg."""
        legs = pairs = 0
        for schedule, instance in self.evaluated:
            expanded = schedule.expanded(instance.metric)
            n_legs = sum(len(track.legs()) for track in expanded.robots)
            legs += n_legs
            pairs += n_legs * instance.n
        return legs, pairs
