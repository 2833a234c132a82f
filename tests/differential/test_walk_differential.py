"""Differential check: the sequential walk ≡ itself, however events arrive.

A session's result may depend only on the event sequence, never on how
that sequence reaches it: read from an in-memory trace or from a colf
container, in any ``batch_size``, over any segment size, or split by a
checkpoint/restore at a segment boundary into a fresh session.  For
every spec the race list (same races, same order), the detector check
counts, the per-event timestamps and the event totals must be identical
to the in-memory reference walk.  This module pins that contract across
the full order × clock matrix, every generator scenario, fork/join
traces and hypothesis-random traces — a batch-boundary bug or a clock
re-seeded one entry off on restore fails here.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.api.sources import ColfSource
from repro.gen.scenarios import SCENARIOS
from repro.trace import Trace
from repro.trace.colfmt import write_colf
from util_traces import make_random_trace, trace_strategy

#: The full order × clock sweep, detection on everywhere, timestamps on
#: the vector-clock side so clock values are compared exactly.
MATRIX_SPECS = [
    "hb+tc+detect",
    "hb+vc+detect+ts",
    "shb+tc+detect",
    "shb+vc+detect+ts",
    "maz+tc+detect",
    "maz+vc+detect+ts",
]

#: Shorter slice for the many-trace sweeps.
SESSION_SPECS = ["hb+tc+detect", "shb+vc+detect", "maz+tc+detect"]


def write_container(events, tmp_path, segment_events=128):
    path = tmp_path / "trace.colf"
    with open(path, "wb") as handle:
        write_colf(events, handle, segment_events=segment_events)
    return path


def reference_walk(events, specs):
    """The in-memory walk every other arrangement must reproduce."""
    return Session(specs).run(Trace(events, name="ref"))


def run_both(events, tmp_path, specs, *, batch_size=None, segment_events=128):
    path = write_container(events, tmp_path, segment_events=segment_events)
    kwargs = {} if batch_size is None else {"batch_size": batch_size}
    with ColfSource(path) as source:
        colf_result = Session(specs).run(source, **kwargs)
    return reference_walk(events, specs), colf_result


def resume_at_segment(events, tmp_path, specs, *, segment_events, cut_segments):
    """Walk a colf container, checkpointing after ``cut_segments`` segments.

    The checkpoint goes through JSON (the on-disk snapshot form) and is
    restored into a fresh session, which reads the rest of the container.
    """
    path = write_container(events, tmp_path, segment_events=segment_events)
    with ColfSource(path) as source:
        batches = list(source.event_batches(segment_events))
        first = Session(specs)
        first.begin(threads=source.threads(), name="resumed")
        for batch in batches[:cut_segments]:
            first.feed_batch(batch)
        state = json.loads(json.dumps(first.checkpoint()))
    resumed = Session(specs)
    resumed.restore(state)
    for batch in batches[cut_segments:]:
        resumed.feed_batch(batch)
    return resumed.finish()


def assert_equivalent(reference, candidate):
    assert candidate.num_events == reference.num_events
    assert set(candidate.results) == set(reference.results)
    for key in reference.results:
        ref_result = reference[key]
        got = candidate[key]
        assert got.num_events == ref_result.num_events, key
        if ref_result.detection is not None:
            ref_races = [race.pair() for race in ref_result.detection.races]
            got_races = [race.pair() for race in got.detection.races]
            assert got_races == ref_races, f"{key}: race sets diverge"
            assert got.detection.checks == ref_result.detection.checks, key
            assert (
                got.detection.total_reported == ref_result.detection.total_reported
            ), key
        if ref_result.timestamps is not None:
            assert got.timestamps == ref_result.timestamps, f"{key}: timestamps diverge"


class TestMatrixEquivalence:
    def test_full_order_clock_matrix(self, tmp_path):
        events = list(make_random_trace(11, num_events=1500, include_fork_join=True))
        reference, colf_result = run_both(events, tmp_path, MATRIX_SPECS)
        assert_equivalent(reference, colf_result)

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1000])
    def test_batch_sizes(self, tmp_path, batch_size):
        events = list(make_random_trace(5, num_events=900))
        reference, colf_result = run_both(
            events, tmp_path, MATRIX_SPECS, batch_size=batch_size
        )
        assert_equivalent(reference, colf_result)

    @pytest.mark.parametrize("segment_events", [16, 64, 257])
    def test_segment_sizes(self, tmp_path, segment_events):
        events = list(make_random_trace(23, num_events=800, include_fork_join=True))
        reference, colf_result = run_both(
            events, tmp_path, MATRIX_SPECS, segment_events=segment_events
        )
        assert_equivalent(reference, colf_result)


class TestScenarioEquivalence:
    def test_all_generator_scenarios(self, tmp_path):
        for name, factory in sorted(SCENARIOS.items()):
            events = list(factory(8, 1200, 3))
            reference, colf_result = run_both(events, tmp_path, SESSION_SPECS)
            assert_equivalent(reference, colf_result)

    def test_fork_join_heavy(self, tmp_path):
        events = list(
            make_random_trace(41, num_threads=10, num_events=1000, include_fork_join=True)
        )
        reference, colf_result = run_both(events, tmp_path, MATRIX_SPECS, batch_size=33)
        assert_equivalent(reference, colf_result)

    def test_sync_free_trace(self, tmp_path):
        events = list(make_random_trace(13, num_events=600, sync_bias=0.0))
        reference, colf_result = run_both(events, tmp_path, MATRIX_SPECS, batch_size=50)
        assert_equivalent(reference, colf_result)

    def test_sync_heavy_trace(self, tmp_path):
        events = list(make_random_trace(17, num_events=600, sync_bias=0.9))
        reference, colf_result = run_both(events, tmp_path, MATRIX_SPECS, batch_size=50)
        assert_equivalent(reference, colf_result)


class TestCallbackEquivalence:
    def test_on_race_order_is_batch_independent(self, tmp_path):
        events = list(make_random_trace(3, num_events=700, sync_bias=0.2))
        path = write_container(events, tmp_path)
        reference_races, colf_races = [], []
        Session(SESSION_SPECS, on_race=reference_races.append).run(Trace(events))
        with ColfSource(path) as source:
            Session(SESSION_SPECS, on_race=colf_races.append).run(source, batch_size=9)
        assert reference_races
        assert [race.pair() for race in colf_races] == [
            race.pair() for race in reference_races
        ]

    def test_countonly_narrator(self, tmp_path):
        """keep_races=False + on_race: callbacks fire, races stay trimmed."""
        events = list(make_random_trace(9, num_events=500, sync_bias=0.2))
        path = write_container(events, tmp_path)
        seen = []
        with ColfSource(path) as source:
            result = Session(
                ["hb+tc+detect+countonly"], on_race=seen.append
            ).run(source, batch_size=17)
        summary = result.primary.detection
        assert summary.races == []
        assert summary.total_reported == len(seen)
        assert len(seen) > 0
        reference = reference_walk(events, ["hb+tc+detect"]).primary.detection
        assert summary.total_reported == reference.total_reported


class TestCheckpointAtSegmentBoundaries:
    @pytest.mark.parametrize("spec", MATRIX_SPECS)
    def test_every_spec_resumes_at_each_boundary(self, tmp_path, spec):
        events = list(make_random_trace(29, num_events=400, include_fork_join=True))
        reference = reference_walk(events, [spec])
        segment_events = 64
        segments = -(-len(events) // segment_events)
        for cut_segments in range(segments + 1):
            resumed = resume_at_segment(
                events,
                tmp_path,
                [spec],
                segment_events=segment_events,
                cut_segments=cut_segments,
            )
            assert_equivalent(reference, resumed)

    def test_multi_spec_resume_matches_reference(self, tmp_path):
        events = list(
            make_random_trace(31, num_threads=8, num_events=900, include_fork_join=True)
        )
        resumed = resume_at_segment(
            events, tmp_path, MATRIX_SPECS, segment_events=100, cut_segments=4
        )
        assert_equivalent(reference_walk(events, MATRIX_SPECS), resumed)


class TestHypothesisEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(trace=trace_strategy(max_events=120, include_fork_join=True), data=st.data())
    def test_random_traces(self, tmp_path_factory, trace, data):
        events = list(trace)
        if not events:
            return
        batch_size = data.draw(st.integers(min_value=1, max_value=40))
        segment_events = data.draw(st.sampled_from([8, 16, 32]))
        tmp_path = tmp_path_factory.mktemp("walk-hyp")
        reference, colf_result = run_both(
            events,
            tmp_path,
            SESSION_SPECS,
            batch_size=batch_size,
            segment_events=segment_events,
        )
        assert_equivalent(reference, colf_result)

    @settings(max_examples=10, deadline=None)
    @given(trace=trace_strategy(max_events=120, include_fork_join=True), data=st.data())
    def test_random_checkpoint_cuts(self, tmp_path_factory, trace, data):
        events = list(trace)
        if not events:
            return
        segment_events = data.draw(st.sampled_from([8, 16, 32]))
        segments = -(-len(events) // segment_events)
        cut_segments = data.draw(st.integers(min_value=0, max_value=segments))
        tmp_path = tmp_path_factory.mktemp("walk-cut")
        resumed = resume_at_segment(
            events,
            tmp_path,
            SESSION_SPECS,
            segment_events=segment_events,
            cut_segments=cut_segments,
        )
        assert_equivalent(reference_walk(events, SESSION_SPECS), resumed)
