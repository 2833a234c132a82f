"""Work and timing metrics for comparing clock data structures.

The timing harness lives in :mod:`repro.obs.timing` (one timing
vocabulary for offline and online measurement); this package re-exports
its names unchanged, alongside the work-optimality measurements of
:mod:`repro.metrics.work`.
"""

from ..obs.timing import (
    DEFAULT_REPETITIONS,
    SpeedupSample,
    TimingSample,
    average_speedup,
    compare_clocks,
    compare_clocks_session,
    geometric_mean,
    time_analysis,
    timing_fields,
)
from .work import (
    TC_OPTIMALITY_FACTOR,
    WorkMeasurement,
    is_vt_optimal,
    measure_work,
)

__all__ = [
    "DEFAULT_REPETITIONS",
    "SpeedupSample",
    "TC_OPTIMALITY_FACTOR",
    "TimingSample",
    "WorkMeasurement",
    "average_speedup",
    "compare_clocks",
    "compare_clocks_session",
    "geometric_mean",
    "is_vt_optimal",
    "measure_work",
    "time_analysis",
    "timing_fields",
]
