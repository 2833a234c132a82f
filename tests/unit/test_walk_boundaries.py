"""Edge cases at the seams of the sequential walk.

A colf container is decoded segment by segment, a session is fed batch
by batch, and a checkpointed walk is restored into a fresh session with
its clocks re-seeded from vector times.  Each seam must be invisible in
the result: a ragged final segment, a lock held across a boundary, a
fork and its join on opposite sides, or a thread first seen after a
restore must all report exactly what one whole in-memory walk reports.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Session
from repro.api.sources import ColfSource
from repro.trace import Trace
from repro.trace import event as ev
from repro.trace.colfmt import write_colf

ALL_SPECS = [
    "hb+tc+detect",
    "hb+vc+detect",
    "shb+tc+detect",
    "shb+vc+detect",
    "maz+tc+detect",
    "maz+vc+detect",
]


def write_container(events, tmp_path, segment_events=8):
    path = tmp_path / "trace.colf"
    with open(path, "wb") as handle:
        write_colf(events, handle, segment_events=segment_events)
    return path


def in_memory_result(spec, events):
    """The reference: one whole walk over an in-memory trace."""
    return Session([spec]).run(Trace(events, name="mem"))[spec]


def colf_result(spec, path, batch_size):
    with ColfSource(path) as source:
        return Session([spec]).run(source, batch_size=batch_size)[spec]


def resumed_result(spec, events, cut):
    """Checkpoint after ``cut`` events, restore into a fresh session, finish."""
    events = list(Trace(events, name="cut"))  # numbered, as a trace hands them out
    first = Session([spec])
    first.begin(name="cut")
    first.feed_batch(events[:cut])
    state = json.loads(json.dumps(first.checkpoint()))
    resumed = Session([spec])
    resumed.restore(state)
    resumed.feed_batch(events[cut:])
    return resumed.finish()[spec]


def race_pairs(result):
    return [race.pair() for race in result.detection.races]


def lock_across_boundary():
    """Acquire before a boundary, release after it."""
    events = [ev.acquire(1, "m"), ev.write(1, "x")]
    events.extend(ev.read(1, "pad") for _ in range(6))  # boundary inside
    events.append(ev.release(1, "m"))
    events.append(ev.acquire(2, "m"))
    events.append(ev.write(2, "x"))  # ordered via m: no race
    events.append(ev.release(2, "m"))
    events.append(ev.write(3, "x"))  # unordered: races with both writes
    return events


def fork_join_across_boundary():
    events = [ev.fork(1, 2)]
    events.extend(ev.write(2, "pad") for _ in range(9))
    events.append(ev.write(2, "x"))
    events.append(ev.join(1, 2))  # lands past the boundary
    events.append(ev.write(1, "x"))  # ordered via join: no race
    events.append(ev.write(3, "x"))  # unordered: races
    return events


class TestSegmentAndBatchSeams:
    def test_ragged_final_segment(self, tmp_path):
        """65 events over segment_events=16: a 1-event final segment."""
        events = [
            ev.write(1 + (i % 3), f"x{i % 4}") if i % 2 else ev.read(1 + (i % 3), f"x{i % 4}")
            for i in range(65)
        ]
        path = write_container(events, tmp_path, segment_events=16)
        with ColfSource(path) as source:
            assert [len(batch) for batch in source.event_batches(16)] == [16, 16, 16, 16, 1]
        reference = in_memory_result("shb+tc+detect", events)
        walked = colf_result("shb+tc+detect", path, batch_size=16)
        assert race_pairs(walked) == race_pairs(reference)
        assert walked.detection.checks == reference.detection.checks

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_lock_pair_split_across_boundary(self, tmp_path, spec):
        """The lock clock carries the holder's state across the seam."""
        events = lock_across_boundary()
        path = write_container(events, tmp_path, segment_events=4)
        reference = in_memory_result(spec, events)
        assert {race.event_tid for race in reference.detection.races} == {3}
        assert race_pairs(colf_result(spec, path, batch_size=4)) == race_pairs(reference)
        assert race_pairs(resumed_result(spec, events, cut=4)) == race_pairs(reference)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_fork_join_split_across_boundary(self, tmp_path, spec):
        events = fork_join_across_boundary()
        path = write_container(events, tmp_path, segment_events=4)
        reference = in_memory_result(spec, events)
        assert {race.event_tid for race in reference.detection.races} == {3}
        assert race_pairs(colf_result(spec, path, batch_size=4)) == race_pairs(reference)
        assert race_pairs(resumed_result(spec, events, cut=8)) == race_pairs(reference)

    def test_batch_larger_than_trace(self, tmp_path):
        events = [ev.write(1 + (i % 2), "x") for i in range(24)]
        path = write_container(events, tmp_path, segment_events=8)
        reference = in_memory_result("hb+tc+detect", events)
        walked = colf_result("hb+tc+detect", path, batch_size=10_000)
        assert walked.num_events == 24
        assert race_pairs(walked) == race_pairs(reference)

    def test_single_segment_container(self, tmp_path):
        events = [ev.write(1 + (i % 2), "x") for i in range(30)]
        path = write_container(events, tmp_path, segment_events=1024)
        with ColfSource(path) as source:
            assert len(list(source.event_batches(1024))) == 1
            result = Session(["hb+tc+detect"]).run(source)
        assert result.num_events == 30
        assert result.primary.detection.race_count > 0
        assert race_pairs(result.primary) == race_pairs(
            in_memory_result("hb+tc+detect", events)
        )

    def test_work_counters_exact_under_batching(self, tmp_path):
        events = [ev.write(1 + (i % 3), f"x{i % 2}") for i in range(60)]
        path = write_container(events, tmp_path, segment_events=16)
        reference = in_memory_result("hb+tc+work", events).work
        walked = colf_result("hb+tc+work", path, batch_size=5).work
        assert walked.increments == 60  # one per event
        assert walked == reference

    def test_colf_source_knows_threads_upfront(self, tmp_path):
        events = [ev.write(7, "x"), ev.write(3, "x"), ev.write(5, "y")]
        path = write_container(events, tmp_path, segment_events=2)
        with ColfSource(path) as source:
            assert list(source.threads()) == [3, 5, 7]
            assert len(source) == 3


class TestRestoreSeams:
    @pytest.mark.parametrize("spec", ["shb+tc+detect+ts", "shb+vc+detect+ts"])
    def test_thread_first_seen_after_restore(self, spec):
        """A thread absent from the snapshot's universe still resolves."""
        events = [ev.write(1, "x") for _ in range(12)]
        events.append(ev.write(9, "x"))  # brand-new thread, after the cut
        reference = in_memory_result(spec, events)
        resumed = resumed_result(spec, events, cut=12)
        assert race_pairs(resumed) == race_pairs(reference)
        assert resumed.timestamps == reference.timestamps
        assert {race.event_tid for race in resumed.detection.races} == {9}
