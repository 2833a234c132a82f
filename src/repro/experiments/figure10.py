"""Figure 10 — controlled scalability experiments.

The paper's Figure 10 compares tree clocks and vector clocks on four
synthetic communication patterns (single lock; fifty locks with skewed
thread activity; star topology; pairwise communication) while the number
of threads grows from 10 to 360 and the trace length stays fixed.  The
headline observations are:

* single lock — both data structures scale linearly with the thread
  count; tree clocks keep a constant-factor advantage in entry updates;
* fifty locks, skewed — similar, with a slightly smaller advantage;
* star topology — vector-clock time grows with the thread count while
  tree-clock time stays (nearly) constant, because each join touches only
  a constant number of tree-clock entries;
* pairwise communication — the worst case for tree clocks, where their
  extra bookkeeping makes them somewhat slower than vector clocks.

This runner reproduces the sweep, reporting both wall-clock times and the
machine-independent work counts per scenario and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis import HBAnalysis
from ..gen.scenarios import DEFAULT_THREAD_COUNTS, SCENARIOS
from ..obs.timing import compare_clocks_session
from ..metrics.work import measure_work
from .reporting import ExperimentReport
from .runner import ExperimentConfig


@dataclass(frozen=True, slots=True)
class ScalabilityConfig:
    """Knobs of the Figure-10 sweep."""

    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS
    num_events: int = 10_000
    repetitions: int = 1
    scenarios: Sequence[str] = tuple(SCENARIOS)
    seed: int = 0


def run(
    config: ExperimentConfig = ExperimentConfig(),
    scalability: ScalabilityConfig = ScalabilityConfig(),
) -> ExperimentReport:
    """Run the scalability sweep behind Figure 10."""
    rows = []
    summary = {}
    for scenario in scalability.scenarios:
        make_trace = SCENARIOS[scenario]
        first_speedup = None
        last_speedup = None
        for num_threads in scalability.thread_counts:
            trace = make_trace(num_threads, scalability.num_events, scalability.seed)
            # Session-shared comparison, same methodology as SuiteRunner's
            # sweep cells, so Figure 10 speedups are comparable to Table 2's.
            timing = compare_clocks_session(
                trace, HBAnalysis, with_analysis=False, repetitions=scalability.repetitions
            )
            work = measure_work(trace, HBAnalysis)
            rows.append(
                [
                    scenario,
                    num_threads,
                    len(trace),
                    round(timing.vc_seconds, 4),
                    round(timing.tc_seconds, 4),
                    round(timing.speedup, 3),
                    round(work.vc_over_tc, 2),
                ]
            )
            if first_speedup is None:
                first_speedup = work.vc_over_tc
            last_speedup = work.vc_over_tc
        if first_speedup is not None and last_speedup is not None:
            summary[f"{scenario}: VCWork/TCWork at k={scalability.thread_counts[0]}"] = round(
                first_speedup, 2
            )
            summary[f"{scenario}: VCWork/TCWork at k={scalability.thread_counts[-1]}"] = round(
                last_speedup, 2
            )
    return ExperimentReport(
        experiment="figure10",
        title="Scalability with the number of threads (HB, four lock topologies)",
        headers=["Scenario", "Threads", "Events", "VC (s)", "TC (s)", "VC/TC time", "VCWork/TCWork"],
        rows=rows,
        summary=summary,
        notes=[
            "Paper uses 10M-event traces and 10-360 threads; events are scaled down here, "
            "which mainly affects the pairwise scenario (locks are reused less).",
            "The star topology is the paper's showcase: the tree-clock cost per event stays "
            "constant as the thread count grows, while the vector-clock cost grows linearly.",
        ],
    )
