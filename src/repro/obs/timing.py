"""Wall-clock timing of the partial-order analyses (the one timing vocabulary).

Folded into :mod:`repro.obs` from the original ``repro.metrics.timing``
(:mod:`repro.metrics` still re-exports these names), so that
offline measurement (this harness, :mod:`repro.bench`) and online
measurement (:mod:`repro.obs.metrics` histograms) speak one vocabulary:
**nanoseconds from** :func:`time.perf_counter_ns`, serialized as the
key pair ``elapsed_ns`` / ``elapsed_seconds`` (:func:`timing_fields`).

The paper's evaluation reports, per benchmark trace, the time to compute
each partial order with vector clocks and with tree clocks (Figure 6) and
the speedup averaged over benchmarks (Table 2), repeating each
measurement three times and reporting the mean.  This module provides a
small timing harness that mirrors that methodology.

Two comparison strategies are provided:

* :func:`compare_clocks` — the classic one: two independent whole-trace
  runs per repetition, one per clock class;
* :func:`compare_clocks_session` — one :class:`repro.api.Session` walk
  per repetition feeding *both* clock configurations, timing each
  configuration's share of every ``feed()`` call.  The interleaving
  controls for machine drift between the two runs and halves the event
  decoding overhead; :class:`repro.experiments.SuiteRunner` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence, Type

from ..clocks.base import Clock
from ..clocks.tree_clock import TreeClock
from ..clocks.vector_clock import VectorClock
from ..trace.trace import Trace

if TYPE_CHECKING:
    # Annotation-only: importing the engine at runtime would cycle, since
    # the engine's result module serializes through timing_fields().
    from ..analysis.engine import PartialOrderAnalysis

#: Number of measurement repetitions used by the paper ("every measurement
#: was repeated 3 times and the average time was reported").
DEFAULT_REPETITIONS = 3


def timing_fields(elapsed_ns: int) -> Dict[str, object]:
    """The canonical serialized timing pair: ``elapsed_ns`` + derived seconds.

    Every ``as_dict`` payload that reports a duration
    (:class:`~repro.analysis.result.AnalysisResult`,
    :class:`~repro.api.session.SessionResult`, …) uses this helper, so
    the key names and the ns-is-authoritative convention cannot drift
    between layers.
    """
    return {"elapsed_ns": int(elapsed_ns), "elapsed_seconds": elapsed_ns / 1e9}


@dataclass(frozen=True, slots=True)
class TimingSample:
    """Timing of one (trace, partial order, clock, with/without analysis) cell."""

    trace_name: str
    partial_order: str
    clock_name: str
    with_analysis: bool
    num_events: int
    num_threads: int
    seconds: float
    repetitions: int

    @property
    def events_per_second(self) -> float:
        """Processing throughput."""
        return self.num_events / self.seconds if self.seconds > 0 else float("inf")


@dataclass(frozen=True, slots=True)
class SpeedupSample:
    """Vector-clock vs tree-clock comparison on one trace."""

    trace_name: str
    partial_order: str
    with_analysis: bool
    num_events: int
    num_threads: int
    vc_seconds: float
    tc_seconds: float

    @property
    def speedup(self) -> float:
        """``VC time / TC time`` — values above 1 mean tree clocks win."""
        return self.vc_seconds / self.tc_seconds if self.tc_seconds > 0 else float("inf")

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary for tabular reports."""
        return {
            "trace": self.trace_name,
            "order": self.partial_order,
            "analysis": self.with_analysis,
            "events": self.num_events,
            "threads": self.num_threads,
            "VC (s)": round(self.vc_seconds, 4),
            "TC (s)": round(self.tc_seconds, 4),
            "speedup": round(self.speedup, 3),
        }


def time_analysis(
    trace: Trace,
    analysis_class: Type[PartialOrderAnalysis],
    clock_class: Type[Clock],
    *,
    with_analysis: bool = False,
    repetitions: int = DEFAULT_REPETITIONS,
) -> TimingSample:
    """Time one analysis configuration, averaged over ``repetitions`` runs."""
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    total_ns = 0
    for _ in range(repetitions):
        analysis = analysis_class(clock_class, detect=with_analysis, keep_races=False)
        total_ns += analysis.run(trace).elapsed_ns
    return TimingSample(
        trace_name=trace.name,
        partial_order=analysis_class.PARTIAL_ORDER,
        clock_name=getattr(clock_class, "SHORT_NAME", clock_class.__name__),
        with_analysis=with_analysis,
        num_events=len(trace),
        num_threads=trace.num_threads,
        seconds=total_ns / repetitions / 1e9,
        repetitions=repetitions,
    )


def compare_clocks(
    trace: Trace,
    analysis_class: Type[PartialOrderAnalysis],
    *,
    with_analysis: bool = False,
    repetitions: int = DEFAULT_REPETITIONS,
) -> SpeedupSample:
    """Time the analysis with vector clocks and with tree clocks on one trace."""
    vc = time_analysis(
        trace, analysis_class, VectorClock, with_analysis=with_analysis, repetitions=repetitions
    )
    tc = time_analysis(
        trace, analysis_class, TreeClock, with_analysis=with_analysis, repetitions=repetitions
    )
    return SpeedupSample(
        trace_name=trace.name,
        partial_order=analysis_class.PARTIAL_ORDER,
        with_analysis=with_analysis,
        num_events=len(trace),
        num_threads=trace.num_threads,
        vc_seconds=vc.seconds,
        tc_seconds=tc.seconds,
    )


def compare_clocks_session(
    trace: Trace,
    analysis_class: Type[PartialOrderAnalysis],
    *,
    with_analysis: bool = False,
    repetitions: int = DEFAULT_REPETITIONS,
) -> SpeedupSample:
    """Clock comparison sharing **one** event walk per repetition.

    Builds a two-spec :class:`repro.api.Session` (``<order>+vc`` and
    ``<order>+tc``) and runs it ``repetitions`` times; each spec's
    elapsed time is the per-``feed_batch`` time attributed to it by the
    session, so both clocks see the identical event stream, interleaved
    at batch granularity (one timer pair per batch per spec — the
    per-event timer overhead of the pre-batching walk is gone, and both
    clocks still ride the same machine conditions within each batch).
    """
    from ..api import ORDERS, AnalysisSpec, Session

    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    order = analysis_class.PARTIAL_ORDER
    if order not in ORDERS or ORDERS.get(order) is not analysis_class:
        # Classes that shadow a registered order name (e.g. the deep-copy
        # ablations) cannot ride a spec-keyed session; time them the
        # classic way.
        return compare_clocks(
            trace, analysis_class, with_analysis=with_analysis, repetitions=repetitions
        )
    session = Session(
        AnalysisSpec(order=order, clock=clock, detect=with_analysis, keep_races=False)
        for clock in ("VC", "TC")
    )
    totals = {"VC": 0, "TC": 0}
    for _ in range(repetitions):
        result = session.run(trace)
        for spec_result in result.results.values():
            totals[spec_result.clock_name] += spec_result.elapsed_ns
    return SpeedupSample(
        trace_name=trace.name,
        partial_order=order,
        with_analysis=with_analysis,
        num_events=len(trace),
        num_threads=trace.num_threads,
        vc_seconds=totals["VC"] / repetitions / 1e9,
        tc_seconds=totals["TC"] / repetitions / 1e9,
    )


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (0 for an empty sequence); robust to large spreads."""
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def average_speedup(samples: Sequence[SpeedupSample]) -> float:
    """Arithmetic mean of per-trace speedups, as reported in Table 2."""
    if not samples:
        return 0.0
    return sum(sample.speedup for sample in samples) / len(samples)
