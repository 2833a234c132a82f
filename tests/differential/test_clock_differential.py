"""Differential fuzzing: optimized TreeClock ≡ VectorClock ≡ dict model.

The tree-clock hot path is aggressively optimized (flat int columns
indexed by thread, one fused stackless walk per join/copy that detaches
and re-attaches in place, slice-copy deep copies).  None of that may
ever be observable: after *every* mutation a tree clock must represent
exactly the vector time the plain vector clock and the reference
dictionary model compute, and its structural invariants
(:meth:`TreeClock.validate_structure`) must hold.  Checking after every
single mutation — not just at the end — is what catches stale-link
bugs: a ``parent``/``nxt``/``prv`` column entry left pointing at a
detached node corrupts the tree long before it changes the final vector
time.

Two granularities:

* **op-level** — hypothesis generates raw clock-operation sequences
  (increment / join / monotone-copy / copy-check-monotone over thread
  and auxiliary clocks) and replays them against TreeClock, VectorClock
  and a plain-dict model simultaneously;
* **trace-level** — random well-formed traces run through the real
  HB/SHB/MAZ analyses with both clock classes, comparing per-event
  timestamps, race streams and the data-structure-independent ``VTWork``
  counter.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import HBAnalysis, MAZAnalysis, SHBAnalysis
from repro.clocks import ClockContext, TreeClock, VectorClock
from repro.clocks.base import VectorTime, vt_join, vt_leq
from util_traces import make_random_trace

NUM_THREADS = 4
NUM_AUX = 3


def _new_universe():
    """Fresh TC / VC / model universes over the same threads and aux slots."""
    threads = list(range(1, NUM_THREADS + 1))
    tc_context = ClockContext(threads=list(threads))
    vc_context = ClockContext(threads=list(threads))
    tc = {tid: TreeClock(tc_context, owner=tid) for tid in threads}
    vc = {tid: VectorClock(vc_context, owner=tid) for tid in threads}
    model: Dict[int, VectorTime] = {tid: {} for tid in threads}
    for aux in range(NUM_AUX):
        key = f"aux{aux}"
        tc[key] = TreeClock(tc_context, owner=None)
        vc[key] = VectorClock(vc_context, owner=None)
        model[key] = {}
    return threads, tc, vc, model


#: One op: (opcode, actor, target).  Opcodes: "inc" (thread increments),
#: "join_aux" (thread joins aux), "join_thread" (thread joins thread),
#: "copy_aux" (aux <- thread; monotone when the model says it is, checked
#: otherwise), "copy_check" (aux <- thread via copy_check_monotone).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["inc", "inc", "inc", "join_aux", "join_thread", "copy_aux", "copy_check"]),
        st.integers(min_value=1, max_value=NUM_THREADS),
        st.integers(min_value=0, max_value=max(NUM_AUX - 1, NUM_THREADS)),
    ),
    min_size=1,
    max_size=120,
)


def _assert_agree(key, tc, vc, model) -> None:
    tc_dict = tc[key].as_dict()
    vc_dict = vc[key].as_dict()
    expected = {tid: value for tid, value in model[key].items() if value}
    assert tc_dict == expected, f"TreeClock diverged from model on {key}"
    assert vc_dict == expected, f"VectorClock diverged from model on {key}"
    problems = tc[key].validate_structure()
    assert problems == [], f"TreeClock invariants violated on {key}: {problems}"


@settings(max_examples=40, deadline=None)
@given(ops=_OPS)
def test_op_sequences_tc_equals_vc_equals_model(ops: List[Tuple[str, int, int]]) -> None:
    """Replay raw op sequences against TC, VC and the dict model in lockstep."""
    threads, tc, vc, model = _new_universe()

    def bump(tid: int) -> None:
        tc[tid].increment(tid)
        vc[tid].increment(tid)
        model[tid][tid] = model[tid].get(tid, 0) + 1

    for opcode, actor, target in ops:
        if opcode in ("join_aux", "join_thread"):
            # Mirror the engine's feed() discipline: a thread clock is
            # incremented before every event's joins, which maintains the
            # snapshot property TreeClock.join's O(1) root check relies
            # on (a clock's root progresses whenever its contents do).
            bump(actor)
        if opcode == "inc":
            bump(actor)
            touched = [actor]
        elif opcode == "join_aux":
            aux = f"aux{target % NUM_AUX}"
            tc[actor].join(tc[aux])
            vc[actor].join(vc[aux])
            model[actor] = vt_join(model[actor], model[aux])
            touched = [actor]
        elif opcode == "join_thread":
            other = threads[target % NUM_THREADS]
            if other != actor:
                tc[actor].join(tc[other])
                vc[actor].join(vc[other])
                model[actor] = vt_join(model[actor], model[other])
            touched = [actor]
        elif opcode == "copy_aux":
            aux = f"aux{target % NUM_AUX}"
            if vt_leq(model[aux], model[actor]):
                # The release pattern: the precondition aux ⊑ C_t holds,
                # so the sublinear monotone copy is legal.
                tc[aux].monotone_copy(tc[actor])
                vc[aux].monotone_copy(vc[actor])
            else:
                tc[aux].copy_check_monotone(tc[actor])
                vc[aux].copy_check_monotone(vc[actor])
            model[aux] = dict(model[actor])
            touched = [aux]
        else:  # copy_check
            aux = f"aux{target % NUM_AUX}"
            tc[aux].copy_check_monotone(tc[actor])
            vc[aux].copy_check_monotone(vc[actor])
            model[aux] = dict(model[actor])
            touched = [aux]
        for key in touched:
            _assert_agree(key, tc, vc, model)
    for key in list(model):
        _assert_agree(key, tc, vc, model)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    fork_join=st.booleans(),
)
@pytest.mark.parametrize("analysis_class", [HBAnalysis, SHBAnalysis, MAZAnalysis])
def test_analyses_tc_equals_vc_event_for_event(analysis_class, seed: int, fork_join: bool) -> None:
    """Full analyses: per-event timestamps, race streams and VTWork agree."""
    trace = make_random_trace(seed, num_events=120, include_fork_join=fork_join)
    results = {}
    for clock_class in (TreeClock, VectorClock):
        analysis = analysis_class(
            clock_class, capture_timestamps=True, count_work=True, detect=True
        )
        results[clock_class] = analysis.run(trace)
    tc_result = results[TreeClock]
    vc_result = results[VectorClock]
    assert tc_result.timestamps == vc_result.timestamps
    tc_races = [(r.variable, r.prior_tid, r.prior_local_time, r.event_eid) for r in tc_result.detection.races]
    vc_races = [(r.variable, r.prior_tid, r.prior_local_time, r.event_eid) for r in vc_result.detection.races]
    assert tc_races == vc_races
    assert tc_result.detection.checks == vc_result.detection.checks
    # VTWork (entries actually changed) is data-structure independent
    # (Section 4 of the paper); TCWork/VCWork legitimately differ.
    assert tc_result.work.entries_updated == vc_result.work.entries_updated


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_incremental_feed_validates_after_every_event(seed: int) -> None:
    """Feed event-by-event; the fed thread's TC must match VC and validate."""
    trace = make_random_trace(seed, num_events=100)
    tc_analysis = SHBAnalysis(TreeClock)
    vc_analysis = SHBAnalysis(VectorClock)
    tc_analysis.begin(threads=trace.threads, trace_name=trace.name)
    vc_analysis.begin(threads=trace.threads, trace_name=trace.name)
    for position, event in enumerate(trace):
        tc_analysis.feed(event)
        vc_analysis.feed(event)
        tc_clock = tc_analysis.thread_clocks[event.tid]
        vc_clock = vc_analysis.thread_clocks[event.tid]
        assert tc_clock.as_dict() == vc_clock.as_dict(), f"divergence at event {position}"
        problems = tc_clock.validate_structure()
        assert problems == [], f"invariant violation at event {position}: {problems}"
        if position % 16 == 0:
            for tid, clock in tc_analysis.thread_clocks.items():
                assert clock.validate_structure() == [], f"thread t{tid} corrupt at event {position}"
            for lock, clock in tc_analysis.lock_clocks.items():
                assert clock.validate_structure() == [], f"lock {lock} corrupt at event {position}"
    tc_analysis.finish()
    vc_analysis.finish()
