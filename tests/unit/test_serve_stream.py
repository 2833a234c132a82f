"""Unit tests for the serve stream's single analysis path (``_StreamState``).

Every stream with specs analyzes each ``feed`` inline: when
``feed_lines`` returns, the session has absorbed the message, its races
are visible, and the spool and event count have advanced together.
``checkpoint=true`` only adds snapshots on top of that same path.  These
tests drive the state object directly, without sockets or worker
processes; the socket-level behaviour is covered by the slow serve lane.
"""

import gzip

import pytest

from repro import TraceBuilder
from repro.api import Session
from repro.recovery import SnapshotError
from repro.serve.server import _StreamState
from repro.trace.io import TraceFormatError, std_line

SPECS = ["shb+tc+detect", "shb+vc+detect"]


@pytest.fixture
def racy_trace():
    builder = TraceBuilder(name="stream-racy")
    builder.write(1, "x").write(2, "x")
    for index in range(20):
        tid = 1 + index % 2
        builder.acquire(tid, "l").write(tid, f"y{index % 3}").release(tid, "l")
    builder.read(2, "y0").write(3, "y1").read(3, "x")
    return builder.build()


@pytest.fixture
def lines(racy_trace):
    return [std_line(event) for event in racy_trace]


def direct_races(trace, specs=SPECS):
    """Races (in report order) and the result of one whole-trace walk."""
    races = []
    result = Session(specs, on_race=races.append).run(trace)
    return [race.as_dict() for race in races], result


def feed_in_chunks(state, lines, size):
    for start in range(0, len(lines), size):
        state.feed_lines(lines[start:start + size])


def spooled_lines(path):
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return handle.read().splitlines()


class TestInlineAnalysis:
    @pytest.mark.parametrize("chunk", [1, 3, 16, 1000])
    def test_any_message_split_matches_a_whole_trace_walk(self, racy_trace, lines, chunk):
        state = _StreamState("split", SPECS, save=False)
        feed_in_chunks(state, lines, chunk)
        result = state.finish()
        expected_races, expected = direct_races(racy_trace)
        assert state.races_since(0)[0] == expected_races
        assert result.num_events == expected.num_events == len(racy_trace)
        for key, analysis in expected:
            assert result[key].detection.race_count == analysis.detection.race_count, key

    def test_race_is_visible_when_the_feed_carrying_it_returns(self, lines):
        state = _StreamState("early", ["shb+tc+detect"], save=False)
        state.feed_lines(lines[:1])
        assert state.races_since(0) == ([], 0)
        state.feed_lines(lines[1:2])
        races, cursor = state.races_since(0)
        assert [race["event_eid"] for race in races] == [1]
        assert cursor == 1
        state.feed_lines(lines[2:5])
        assert state.races_since(cursor) == ([], 1)

    def test_feed_returns_its_events_and_counts_them(self, racy_trace, lines):
        state = _StreamState("count", SPECS, save=False)
        fed = state.feed_lines(lines[:4])
        assert fed == list(racy_trace)[:4]
        assert state.events_sent == 4
        assert state.feed_lines(lines[4:9])[0].eid == 4
        assert state.events_sent == 9

    def test_blank_and_comment_only_feed_changes_nothing(self, lines):
        state = _StreamState("blank", SPECS, save=True)
        try:
            state.feed_lines(lines[:2])
            before = state.races_since(0)
            assert before[1] > 0
            assert state.feed_lines(["", "# nothing here", "   "]) == []
            assert state.events_sent == 2
            assert state.races_since(0) == before
            state.finish()
            assert spooled_lines(state.spool_path) == lines[:2]
        finally:
            state.discard_spool()


class TestMalformedMessage:
    def test_rejected_whole_and_resendable(self, racy_trace, lines):
        state = _StreamState("repair", SPECS, save=True)
        try:
            state.feed_lines(lines[:1])
            with pytest.raises(TraceFormatError, match="line 5"):
                state.feed_lines(lines[1:4] + ["T2|bogus(x)|0"] + lines[4:10])
            # Nothing of the rejected message was analyzed, spooled or counted.
            assert state.events_sent == 1
            assert state.races_since(0) == ([], 0)
            state.feed_lines(lines[1:10])
            state.feed_lines(lines[10:])
            result = state.finish()
            assert spooled_lines(state.spool_path) == lines
        finally:
            state.discard_spool()
        expected_races, expected = direct_races(racy_trace)
        assert state.races_since(0)[0] == expected_races
        assert result.num_events == expected.num_events

    def test_analysis_error_is_sticky(self, lines, monkeypatch):
        state = _StreamState("broken", SPECS, save=False)
        state.feed_lines(lines[:2])

        def fail(events):
            raise ValueError("engine exploded")

        monkeypatch.setattr(state.session, "feed_batch", fail)
        with pytest.raises(ValueError, match="engine exploded"):
            state.feed_lines(lines[2:4])
        assert state.events_sent == 2
        with pytest.raises(RuntimeError, match="engine exploded"):
            state.feed_lines(lines[4:6])
        with pytest.raises(RuntimeError, match="engine exploded"):
            state.finish()


class TestSpoolAndIngestOnly:
    def test_save_spool_holds_exactly_the_fed_lines(self, lines):
        state = _StreamState("spool", SPECS, save=True)
        try:
            feed_in_chunks(state, lines, 7)
            state.finish()
            assert spooled_lines(state.spool_path) == lines
        finally:
            state.discard_spool()
        assert state.spool_path is None

    def test_ingest_only_stream_has_no_session(self, lines):
        state = _StreamState("ingest", [], save=True)
        try:
            assert state.session is None
            feed_in_chunks(state, lines, 5)
            assert state.finish() is None
            assert state.events_sent == len(lines)
            assert state.races_since(0) == ([], 0)
            assert spooled_lines(state.spool_path) == lines
        finally:
            state.discard_spool()

    def test_abort_of_a_plain_stream_deletes_its_spool(self, lines):
        state = _StreamState("dropped", SPECS, save=True)
        spool = state.spool_path
        state.feed_lines(lines[:3])
        state.abort()
        assert not spool.exists()
        assert state.spool_path is None


class TestCheckpointedStream:
    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_checkpoint_flag_does_not_change_what_is_found(
        self, tmp_path, racy_trace, lines, checkpoint
    ):
        state = _StreamState(
            "same-path",
            SPECS,
            save=False,
            checkpoint_dir=tmp_path if checkpoint else None,
            checkpoint_every=8 if checkpoint else 0,
        )
        feed_in_chunks(state, lines, 5)
        result = state.finish()
        expected_races, expected = direct_races(racy_trace)
        assert state.races_since(0)[0] == expected_races
        for key, analysis in expected:
            assert result[key].detection.race_count == analysis.detection.race_count, key

    def test_snapshots_only_with_checkpoint_and_at_its_cadence(self, tmp_path, lines):
        plain = _StreamState("plain", SPECS, save=False)
        plain.feed_lines(lines)
        assert plain.snapshot_path is None
        with pytest.raises(RuntimeError, match="checkpoint=true"):
            plain.checkpoint_now()

        state = _StreamState(
            "durable", SPECS, save=False, checkpoint_dir=tmp_path, checkpoint_every=10
        )
        state.feed_lines(lines[:9])
        assert not state.snapshot_path.exists()
        state.feed_lines(lines[9:12])
        assert state.snapshot_path.exists()
        state.finish()
        assert not state.snapshot_path.exists()

    def test_resume_converges_to_the_uninterrupted_stream(self, tmp_path, racy_trace, lines):
        state = _StreamState(
            "resumable", SPECS, save=True, checkpoint_dir=tmp_path, checkpoint_every=10
        )
        feed_in_chunks(state, lines[:25], 4)
        # The connection dies: abort keeps a final snapshot and the spool.
        state.abort()
        resumed = _StreamState.resume("resumable", tmp_path)
        assert resumed.events_sent == 25
        try:
            resumed.feed_lines(lines[resumed.events_sent:])
            result = resumed.finish()
            assert spooled_lines(resumed.spool_path) == lines
        finally:
            resumed.discard_spool()
        expected_races, expected = direct_races(racy_trace)
        assert resumed.races_since(0)[0] == expected_races
        assert result.num_events == expected.num_events
        with pytest.raises(SnapshotError):
            _StreamState.resume("resumable", tmp_path)
