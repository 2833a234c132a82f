"""Clock data structures: vector clocks, tree clocks, epochs."""

from .base import (
    Clock,
    ClockContext,
    VectorTime,
    WorkCounter,
    clock_name,
    vt_equal,
    vt_get,
    vt_join,
    vt_leq,
)
from .epoch import EMPTY_EPOCH, Epoch, epoch_of, is_empty
from .render import render_clock, render_tree_clock, render_vector_time
from .tree_clock import TreeClock, TreeClockNode
from .vector_clock import VectorClock

#: Clock classes selectable by short name (legacy surface; the extensible
#: registry lives in :mod:`repro.api.registry`).
CLOCK_CLASSES = {
    "VC": VectorClock,
    "TC": TreeClock,
}


__all__ = [
    "CLOCK_CLASSES",
    "Clock",
    "ClockContext",
    "EMPTY_EPOCH",
    "Epoch",
    "TreeClock",
    "TreeClockNode",
    "VectorClock",
    "VectorTime",
    "WorkCounter",
    "clock_name",
    "epoch_of",
    "is_empty",
    "render_clock",
    "render_tree_clock",
    "render_vector_time",
    "vt_equal",
    "vt_get",
    "vt_join",
    "vt_leq",
]
