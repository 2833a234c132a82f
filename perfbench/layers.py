"""Per-layer timing for the traced run, recorded from the benchmark's side.

:class:`LayerProbe` wraps the public entry points of each layer — the
sources' ``event_batches`` (trace decode), the engine's ``feed_batch``
(analysis), the clocks' ``join``/``monotone_copy``/``copy_check_monotone``/
``increment`` and the detectors' ``on_read``/``on_write``/``on_access``/
``after_access`` — with wrappers that add into in-memory accumulators.
Nothing is written per call; the caller reads the accumulators after each
walk.  Nothing under ``src/`` changes: the wrappers are installed on the
classes for the traced walks only and removed afterwards.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.analysis.detectors import RaceDetector, ReversiblePairDetector
from repro.analysis.engine import PartialOrderAnalysis
from repro.api.sources import ColfSource, FileSource
from repro.clocks.tree_clock import TreeClock
from repro.clocks.vector_clock import VectorClock

CLOCK_METHODS = ("join", "monotone_copy", "copy_check_monotone", "increment")
DETECTOR_METHODS: Tuple[Tuple[type, str], ...] = (
    (RaceDetector, "on_read"),
    (RaceDetector, "on_write"),
    (ReversiblePairDetector, "on_access"),
    (ReversiblePairDetector, "after_access"),
)


class Accumulator:
    """Time and calls spent inside one layer, outermost calls only."""

    __slots__ = ("ns", "calls", "depth")

    def __init__(self) -> None:
        self.ns = 0
        self.calls = 0
        self.depth = 0

    def take(self) -> Tuple[int, int]:
        taken = (self.ns, self.calls)
        self.ns = 0
        self.calls = 0
        return taken


def _timed(function: Callable, acc: Accumulator) -> Callable:
    perf = time.perf_counter_ns

    # A TreeClock copy_check_monotone calls monotone_copy: the depth guard
    # keeps nested calls from being counted twice.
    def wrapper(*args):
        if acc.depth:
            return function(*args)
        acc.depth = 1
        started = perf()
        try:
            return function(*args)
        finally:
            acc.ns += perf() - started
            acc.calls += 1
            acc.depth = 0

    return wrapper


def _timed_batches(function: Callable, acc: Accumulator) -> Callable:
    perf = time.perf_counter_ns

    def wrapper(self, *args):
        batches = function(self, *args)
        while True:
            started = perf()
            try:
                batch = next(batches)
            except StopIteration:
                acc.ns += perf() - started
                return
            acc.ns += perf() - started
            acc.calls += 1
            yield batch

    return wrapper


class LayerProbe:
    """Installs the wrappers and turns accumulated time into per-layer numbers."""

    def __init__(self) -> None:
        self.decode = Accumulator()
        self.feed = Accumulator()
        self.clock = Accumulator()
        self.detect = Accumulator()
        self._saved: List[Tuple[type, str, object]] = []
        #: Wrapper cost per call: the part inside the timed interval, and
        #: the part the caller's interval sees (set by :meth:`calibrate`).
        self.inside_ns = 0.0
        self.outside_ns = 0.0

    def _patch(self, owner: type, name: str, wrapper: Callable) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        for source in (FileSource, ColfSource):
            self._patch(source, "event_batches", _timed_batches(source.event_batches, self.decode))
        self._patch(
            PartialOrderAnalysis, "feed_batch", _timed(PartialOrderAnalysis.feed_batch, self.feed)
        )
        for clock in (TreeClock, VectorClock):
            for name in CLOCK_METHODS:
                self._patch(clock, name, _timed(getattr(clock, name), self.clock))
        for detector, name in DETECTOR_METHODS:
            self._patch(detector, name, _timed(getattr(detector, name), self.detect))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def calibrate(self, calls: int = 20_000, trials: int = 5) -> None:
        """Measure what one wrapped call adds, so it can be taken out again."""

        class Target:
            def noop(self, value):
                return value

        target = Target()
        plain = target.noop
        acc = Accumulator()
        wrapped = _timed(Target.noop, acc)
        perf = time.perf_counter_ns
        added, inside = [], []
        for _ in range(trials):
            started = perf()
            for _ in range(calls):
                plain(1)
            base = perf() - started
            acc.take()
            started = perf()
            for _ in range(calls):
                wrapped(target, 1)
            total = perf() - started
            added.append((total - base) / calls)
            inside.append(acc.take()[0] / calls)
        self.inside_ns = statistics.median(inside)
        self.outside_ns = max(0.0, statistics.median(added) - self.inside_ns)

    def take_walk(self) -> Dict[str, float]:
        """The layer times of the walk just finished, wrapper cost removed."""
        decode_ns, _ = self.decode.take()
        feed_ns, feed_calls = self.feed.take()
        clock_ns, clock_calls = self.clock.take()
        detect_ns, detect_calls = self.detect.take()
        clock_ns -= clock_calls * self.inside_ns
        detect_ns -= detect_calls * self.inside_ns
        wrapped_calls = clock_calls + detect_calls
        feed_ns -= feed_calls * self.inside_ns
        return {
            "decode_ns": float(decode_ns),
            "feed_ns": float(feed_ns),
            "clock_ns": clock_ns,
            "detect_ns": detect_ns,
            "analysis_self_ns": feed_ns - clock_ns - detect_ns
            - wrapped_calls * (self.inside_ns + self.outside_ns),
        }
