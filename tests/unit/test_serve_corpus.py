"""Unit tests for the content-addressed trace corpus (:mod:`repro.serve.corpus`)."""

import hashlib
import io
import json

import pytest

from repro.trace import Trace, TraceBuilder
from repro.trace import event as ev
from repro.trace.colfmt import ColfWriter, write_colf
from repro.trace.event import Event, OpKind
from repro.trace.io import (
    dumps_csv,
    dumps_std,
    iter_csv,
    iter_std,
    save_trace,
    std_line,
)
from repro.serve import corpus as corpus_module
from repro.serve.corpus import INDEX_SCHEMA, CorpusError, TraceCorpus


@pytest.fixture
def sample_trace() -> Trace:
    builder = TraceBuilder(name="corpus-sample")
    builder.write(1, "x").acquire(1, "l").write(1, "y").release(1, "l")
    builder.acquire(2, "l").read(2, "y").release(2, "l").write(2, "x")
    return builder.build()


class TestIngest:
    def test_ingest_trace_records_stats(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, created = corpus.ingest(sample_trace, tags=("unit",))
        assert created
        assert entry.name == "corpus-sample"
        assert entry.events == len(sample_trace)
        assert entry.threads == 2
        assert entry.locks == 1
        assert entry.variables == 2
        assert entry.sync_events == 4
        assert entry.tags == ("unit",)
        assert len(corpus) == 1

    def test_stored_file_round_trips(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(sample_trace)
        restored = corpus.load(entry.digest)
        assert list(restored) == list(sample_trace)
        assert restored.name == "corpus-sample"

    def test_open_source_streams_the_stored_trace(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(sample_trace)
        source = corpus.open_source(entry.digest)
        assert list(source.events()) == list(sample_trace)
        assert source.events_emitted == len(sample_trace)

    def test_ingest_from_file_path(self, tmp_path, sample_trace):
        path = tmp_path / "t.std.gz"
        save_trace(sample_trace, path, fmt="std")
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, created = corpus.ingest(path)
        assert created and entry.events == len(sample_trace)
        assert entry.name == "t.std.gz"


class TestContentAddressing:
    def test_duplicate_submission_dedupes_to_one_entry(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        first, created_first = corpus.ingest(sample_trace)
        second, created_second = corpus.ingest(sample_trace)
        assert created_first and not created_second
        assert first.digest == second.digest
        assert len(corpus) == 1
        stored = list(corpus.traces_dir.glob("*.colf"))
        assert len(stored) == 1

    def test_digest_is_format_independent(self, tmp_path, sample_trace):
        std_path = tmp_path / "t.std"
        csv_path = tmp_path / "t.csv.gz"
        save_trace(sample_trace, std_path, fmt="std")
        save_trace(sample_trace, csv_path, fmt="csv")
        corpus = TraceCorpus(tmp_path / "corpus")
        from_std, _ = corpus.ingest(std_path)
        from_csv, created = corpus.ingest(csv_path)
        assert from_std.digest == from_csv.digest
        assert not created
        assert len(corpus) == 1

    def test_dedupe_merges_tags(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        corpus.ingest(sample_trace, tags=("a",))
        entry, _ = corpus.ingest(sample_trace, tags=("b",))
        assert entry.tags == ("a", "b")

    def test_different_traces_get_different_digests(self, tmp_path, sample_trace):
        other = TraceBuilder(name="other").write(1, "z").build()
        corpus = TraceCorpus(tmp_path / "corpus")
        first, _ = corpus.ingest(sample_trace)
        second, _ = corpus.ingest(other)
        assert first.digest != second.digest
        assert len(corpus) == 2


def per_event_ingest(events):
    """The per-event ingest the batch path must equal: digest, colf bytes, stats."""
    hasher = hashlib.sha256()
    buffer = io.BytesIO()
    threads, locks, variables = set(), set(), set()
    count = sync = 0
    writer = ColfWriter(buffer)
    for event in events:
        hasher.update(std_line(event).encode("utf-8"))
        hasher.update(b"\n")
        writer.write(event)
        count += 1
        threads.add(event.tid)
        if event.kind in (OpKind.ACQUIRE, OpKind.RELEASE, OpKind.FORK, OpKind.JOIN):
            sync += 1
            if event.kind in (OpKind.ACQUIRE, OpKind.RELEASE):
                locks.add(event.target)
        elif event.kind in (OpKind.READ, OpKind.WRITE):
            variables.add(event.target)
    writer.close()
    stats = (count, len(threads), len(locks), len(variables), sync)
    return hasher.hexdigest(), buffer.getvalue(), stats


def entry_outcome(corpus, entry):
    stats = (entry.events, entry.threads, entry.locks, entry.variables, entry.sync_events)
    return entry.digest, corpus.trace_path(entry.digest).read_bytes(), stats


@pytest.fixture(scope="module")
def fork_join_trace() -> Trace:
    """Two blocks and more: threads first seen as fork targets in both
    blocks (each forked before an earlier-acting thread, so fork order and
    first-action order disagree), begin/end markers, and variables new in
    the second block."""
    builder = TraceBuilder(name="fork-join-blocks")
    builder.append(ev.begin(0)).fork(0, 2).fork(0, 1)
    for index in range(6000):
        if index == 4500:
            builder.fork(2, 9).fork(1, 7).write(7, "late").append(ev.begin(9))
        tid = (0, 1, 2, 7, 9)[index % (5 if index > 4500 else 3)]
        if index % 11 == 0:
            builder.acquire(tid, f"l{index % 3}").release(tid, f"l{index % 3}")
        elif index % 2:
            builder.read(tid, f"x{index % 97}")
        else:
            builder.write(tid, f"v{index % 4001}")
    builder.append(ev.end(9)).join(2, 9).join(1, 7).join(0, 2).join(0, 1).append(ev.end(0))
    return builder.build()


@pytest.fixture(scope="module")
def fork_free_trace() -> Trace:
    """Two blocks without fork/join: threads and variables first seen out
    of sorted order, and new ones of both first seen in the second block."""
    builder = TraceBuilder(name="fork-free-blocks")
    for index in range(6000):
        tids = (9, 4, 6) if index < 5000 else (9, 12, 4, 2, 6)
        tid = tids[index % len(tids)]
        variable = f"v{(index * 7919) % (300 if index < 5000 else 900)}"
        if index % 13 == 0:
            builder.acquire(tid, "lk").release(tid, "lk")
        elif index % 2:
            builder.read(tid, variable)
        else:
            builder.write(tid, variable)
    return builder.build()


class TestBatchIngestExactness:
    """Block-at-a-time ingest ≡ the per-event reference, on every source."""

    def test_fork_free_std_text(self, tmp_path, fork_free_trace):
        text = dumps_std(fork_free_trace)
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest_text(text)
        assert entry_outcome(corpus, entry) == per_event_ingest(iter_std(text.splitlines()))

    def test_std_text(self, tmp_path, fork_join_trace):
        text = dumps_std(fork_join_trace)
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest_text(text)
        assert entry_outcome(corpus, entry) == per_event_ingest(iter_std(text.splitlines()))

    def test_csv_text(self, tmp_path, fork_join_trace):
        text = dumps_csv(fork_join_trace)
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest_text(text, fmt="csv")
        assert entry_outcome(corpus, entry) == per_event_ingest(iter_csv(text.splitlines()))

    def test_trace(self, tmp_path, fork_join_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(fork_join_trace)
        assert entry_outcome(corpus, entry) == per_event_ingest(fork_join_trace)

    def test_colf_path(self, tmp_path, fork_join_trace):
        path = tmp_path / "t.colf"
        write_colf(iter(fork_join_trace), path, segment_events=1000)
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(path)
        assert entry_outcome(corpus, entry) == per_event_ingest(fork_join_trace)

    def test_ingest_text_rejects_unknown_formats(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        with pytest.raises(ValueError, match="unknown trace text format 'colf'"):
            corpus.ingest_text("T1|w(x)|0\n", fmt="colf")
        assert len(corpus) == 0

    def test_unusual_value_types_take_the_per_event_path(self, tmp_path):
        # Equal but differently rendered values (1, True, 1.0) and targets
        # keyed by str(): the caches must not merge them.
        events = [
            Event(0, 1, OpKind.WRITE, 1),
            Event(1, 1, OpKind.WRITE, True),
            Event(2, True, OpKind.READ, "1"),
            Event(3, 2, OpKind.FORK, 5.0),
            Event(4, 1, OpKind.JOIN, 5),
            Event(5, 1, OpKind.ACQUIRE, ("t", 5)),
            Event(6, 1, OpKind.RELEASE, ("t", 5)),
            Event(7, 5, OpKind.END, None),
        ]
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(iter(events))
        assert entry_outcome(corpus, entry) == per_event_ingest(events)

    def test_malformed_line_in_second_block_rejects_cleanly(self, tmp_path, fork_join_trace):
        lines = dumps_std(fork_join_trace).splitlines()
        bad = corpus_module._INGEST_BLOCK_EVENTS + 50
        lines[bad] = "not a trace line"
        corpus = TraceCorpus(tmp_path / "corpus")
        message = (
            f"cannot ingest trace: TraceFormatError: line {bad + 1}: "
            "cannot parse 'not a trace line'"
        )
        with pytest.raises(CorpusError) as raised:
            corpus.ingest_text("\n".join(lines))
        assert str(raised.value) == message
        assert list(corpus.traces_dir.iterdir()) == []
        assert len(corpus) == 0
        assert not corpus.index_path.exists()


class TestEdgeCases:
    def test_corrupt_gz_rejected_with_clean_error(self, tmp_path):
        bad = tmp_path / "bad.std.gz"
        bad.write_bytes(b"this is not gzip data")
        corpus = TraceCorpus(tmp_path / "corpus")
        with pytest.raises(CorpusError, match="cannot ingest trace"):
            corpus.ingest(bad)
        assert len(corpus) == 0
        # no temp debris left behind
        assert list(corpus.traces_dir.iterdir()) == []

    def test_truncated_gz_rejected_with_clean_error(self, tmp_path, sample_trace):
        path = tmp_path / "t.std.gz"
        save_trace(sample_trace, path, fmt="std")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # chop the gzip stream
        corpus = TraceCorpus(tmp_path / "corpus")
        with pytest.raises(CorpusError, match="cannot ingest trace"):
            corpus.ingest(path)
        assert len(corpus) == 0

    def test_malformed_trace_lines_rejected(self, tmp_path):
        bad = tmp_path / "bad.std"
        bad.write_text("T1|w(x)\nnot a trace line\n")
        corpus = TraceCorpus(tmp_path / "corpus")
        with pytest.raises(CorpusError, match="cannot ingest trace"):
            corpus.ingest(bad)
        assert len(corpus) == 0

    def test_empty_trace_is_handled(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, created = corpus.ingest(Trace([], name="empty"))
        assert created
        assert entry.events == 0 and entry.threads == 0
        assert entry.sync_fraction == 0.0
        assert list(corpus.open_source(entry.digest).events()) == []

    def test_unknown_digest_raises(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        with pytest.raises(CorpusError, match="no trace with digest"):
            corpus.get("feedfacedeadbeef")


class TestIndex:
    def test_index_persists_across_reopen(self, tmp_path, sample_trace):
        first = TraceCorpus(tmp_path / "corpus")
        entry, _ = first.ingest(sample_trace, tags=("kept",))
        reopened = TraceCorpus(tmp_path / "corpus")
        assert len(reopened) == 1
        restored = reopened.get(entry.digest)
        assert restored.tags == ("kept",)
        assert restored.events == entry.events

    def test_index_schema_is_versioned(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        corpus.ingest(sample_trace)
        payload = json.loads(corpus.index_path.read_text())
        assert payload["schema"] == INDEX_SCHEMA

    def test_unsupported_index_schema_rejected(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "index.json").write_text(json.dumps({"schema": "bogus/9", "traces": {}}))
        with pytest.raises(CorpusError, match="unsupported corpus index schema"):
            TraceCorpus(root)

    def test_tag_queries(self, tmp_path, sample_trace):
        other = TraceBuilder(name="other").write(1, "z").build()
        corpus = TraceCorpus(tmp_path / "corpus")
        corpus.ingest(sample_trace, tags=("captured", "ci"))
        corpus.ingest(other, tags=("synthetic",))
        assert [e.name for e in corpus.entries(tag="captured")] == ["corpus-sample"]
        assert [e.name for e in corpus.entries(tag="synthetic")] == ["other"]
        assert len(corpus.entries()) == 2

    def test_remove_deletes_file_and_entry(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(sample_trace)
        path = corpus.trace_path(entry.digest)
        assert path.exists()
        corpus.remove(entry.digest)
        assert not path.exists()
        assert len(corpus) == 0
        assert len(TraceCorpus(tmp_path / "corpus")) == 0

    def test_summary_totals(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        corpus.ingest(sample_trace)
        summary = corpus.summary()
        assert summary["traces"] == 1
        assert summary["events"] == len(sample_trace)
