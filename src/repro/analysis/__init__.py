"""Partial-order analyses: HB, SHB, MAZ, race detection and the graph oracle.

Migration note
--------------
Direct construction (``HBAnalysis(TreeClock, detect=True).run(trace)``)
still works and remains the right tool for one-off runs, but the
``ANALYSIS_CLASSES`` dict is frozen legacy surface: new code should go
through :mod:`repro.api` — ``parse_spec("hb+tc+detect")`` /
:class:`repro.api.Session` — which shares one event walk across many
configurations and picks up orders registered at runtime via
:func:`repro.api.register_order`; resolve an order by name with
:func:`repro.api.order_class`.
"""

from .detectors import RaceDetector, ReversiblePairDetector
from .engine import PartialOrderAnalysis
from .graph import GraphOrder
from .hb import HBAnalysis, compute_hb
from .maz import MAZAnalysis, compute_maz
from .races import detect_races, find_races, has_race
from .result import AnalysisResult, DetectionSummary, Race
from .shb import SHBAnalysis, compute_shb

#: Analysis classes selectable by partial-order name (legacy surface; the
#: extensible registry lives in :mod:`repro.api.registry`).
ANALYSIS_CLASSES = {
    "HB": HBAnalysis,
    "SHB": SHBAnalysis,
    "MAZ": MAZAnalysis,
}


__all__ = [
    "ANALYSIS_CLASSES",
    "AnalysisResult",
    "DetectionSummary",
    "GraphOrder",
    "HBAnalysis",
    "MAZAnalysis",
    "PartialOrderAnalysis",
    "Race",
    "RaceDetector",
    "ReversiblePairDetector",
    "SHBAnalysis",
    "compute_hb",
    "compute_maz",
    "compute_shb",
    "detect_races",
    "find_races",
    "has_race",
]
