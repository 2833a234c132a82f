"""Timeline reconstruction, span merging, and the ``repro obs`` CLI.

Synthetic record sets (hand-built dicts, no live tracing needed) pin the
reconstruction semantics: re-nesting on sid/psid, phase classification
with topmost-only totals, the dispatch gap computed from the
queue-wait/worker-task bracket, and the critical path reported as a wall
extent (nested spans must not double-count).
"""

import json

import pytest

from repro.obs.cli import main as obs_main
from repro.obs.merge import find_span_files, load_spans
from repro.obs.report import (
    PHASES,
    build_timeline,
    build_tree,
    critical_path,
    format_ns,
    phase_of,
    render_gantt,
    to_chrome_trace,
)
from repro.obs.tracing import SCHEMA, configure_tracing, shutdown_tracing, span


@pytest.fixture(autouse=True)
def clean_tracing_state():
    shutdown_tracing()
    yield
    shutdown_tracing()


TRACE = "ab" * 16


def record(name, sid, psid, start, end, *, pid=1, attrs=None, unix_base=1_000_000_000):
    return {
        "schema": SCHEMA,
        "name": name,
        "trace_id": TRACE,
        "sid": sid,
        "psid": psid,
        "start_ns": start,
        "end_ns": end,
        "dur_ns": end - start,
        "start_unix_ns": unix_base + start,
        "pid": pid,
        "thread": 1,
        "attrs": attrs or {},
    }


def job_records():
    """A miniature distributed job: client → op → queue/worker → session."""
    return [
        record("client.submit", "c1", None, 0, 1000),
        record("serve.op.submit", "s1", "c1", 50, 950),
        record("job.queue_wait", "q1", "s1", 100, 300, attrs={"job": "t#hb"}),
        record("worker.task", "w1", "s1", 400, 900, pid=2, attrs={"job": "t#hb"}),
        record("session.run", "r1", "w1", 420, 880, pid=2),
        record("job.persist", "pe1", "s1", 900, 940),
    ]


class TestPhases:
    def test_span_names_classify(self):
        assert phase_of("client.submit") == "submit"
        assert phase_of("serve.op.submit") == "submit"
        assert phase_of("job.queue_wait") == "queue"
        assert phase_of("worker.task") == "analyze"
        assert phase_of("session.run") == "analyze"
        assert phase_of("job.persist") == "persist"
        assert phase_of("something.else") is None

    def test_phase_order_covers_the_lifecycle(self):
        assert PHASES[0] == "submit"
        assert "dispatch" in PHASES and "queue" in PHASES


class TestTree:
    def test_renests_on_sid_psid(self):
        roots = build_tree(job_records())
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "client.submit" and root.depth == 0
        op = root.children[0]
        assert op.name == "serve.op.submit"
        assert [c.name for c in op.children] == [
            "job.queue_wait",
            "worker.task",
            "job.persist",
        ]
        worker = op.children[1]
        assert worker.children[0].name == "session.run"
        assert worker.children[0].depth == 3

    def test_missing_parent_becomes_root(self):
        records = [
            record("worker.task", "w1", "gone", 10, 20),
            record("session.run", "r1", "w1", 12, 18),
        ]
        roots = build_tree(records)
        assert [r.name for r in roots] == ["worker.task"]
        assert roots[0].children[0].name == "session.run"

    def test_critical_path_follows_latest_finishing_subtree(self):
        records = job_records()
        chain = critical_path(build_tree(records))
        assert [n.name for n in chain] == [
            "client.submit",
            "serve.op.submit",
            "job.persist",
        ]


class TestTimeline:
    def test_phase_totals_count_topmost_spans_only(self):
        timeline = build_timeline(TRACE, job_records())
        phases = timeline.phase_totals_ns
        # client.submit (1000) only; the nested serve.op.submit is the
        # same submit, not a second one.
        assert phases["submit"] == 1000
        # worker.task (500) only; session.run nests inside it.
        assert phases["analyze"] == 500
        assert phases["queue"] == 200
        assert phases["persist"] == 40

    def test_dispatch_gap_is_queue_end_to_task_start(self):
        timeline = build_timeline(TRACE, job_records())
        assert timeline.dispatch_gap_ns == 100  # 400 - 300
        assert timeline.phase_totals_ns["dispatch"] == 100

    def test_critical_path_ns_is_wall_extent_not_sum(self):
        timeline = build_timeline(TRACE, job_records())
        payload = timeline.as_dict()
        assert payload["critical_path_ns"] <= payload["wall_ns"]
        assert payload["critical_path_ns"] == 1000  # root start → persist end is inside root

    def test_as_dict_shape(self):
        payload = build_timeline(TRACE, job_records()).as_dict()
        assert payload["schema"] == "repro-obs-timeline/1"
        assert payload["trace_id"] == TRACE
        assert payload["spans"] == 6
        assert payload["pids"] == [1, 2]
        assert set(payload["phases_ns"]) == set(PHASES)
        assert payload["tree"][0]["name"] == "client.submit"
        assert [hop["name"] for hop in payload["critical_path"]][0] == "client.submit"
        json.dumps(payload)

    def test_render_gantt_lists_every_span_and_phase(self):
        text = render_gantt(build_timeline(TRACE, job_records()))
        for name in ("client.submit", "worker.task", "session.run"):
            assert name in text
        for phase in ("submit", "queue", "dispatch", "analyze", "persist"):
            assert phase in text
        assert "critical path" in text

    def test_format_ns(self):
        assert format_ns(500) == "500ns"
        assert format_ns(1500) == "1.5µs"
        assert format_ns(2_500_000) == "2.5ms"
        assert format_ns(3_200_000_000) == "3.20s"


class TestChromeExport:
    def test_events_are_valid_and_complete(self):
        payload = to_chrome_trace(job_records())
        json.dumps(payload)
        events = payload["traceEvents"]
        assert len(events) == 6
        assert all(event["ph"] == "X" for event in events)
        submit = next(e for e in events if e["name"] == "client.submit")
        assert submit["cat"] == "submit"
        assert submit["args"]["trace_id"] == TRACE
        # µs timestamps derived from the unix stamp.
        assert submit["ts"] == pytest.approx(1_000_000_000 / 1000.0)
        assert submit["dur"] == pytest.approx(1.0)


class TestMerge:
    def _write_spans(self, path, names):
        configure_tracing(path)
        for name in names:
            with span(name):
                pass
        shutdown_tracing()

    def test_merges_directory_recursively_and_counts_corruption(self, tmp_path):
        obs_dir = tmp_path / "obs"
        (obs_dir / "job").mkdir(parents=True)
        self._write_spans(obs_dir / "spans-server.jsonl", ["serve.op.submit"])
        self._write_spans(obs_dir / "job" / "spans-123.jsonl", ["worker.task"])
        with open(obs_dir / "spans-server.jsonl", "a") as handle:
            handle.write("torn line from a crashed writer\n")
        merged = load_spans([obs_dir])
        assert len(merged.files) == 2
        assert merged.corrupt_lines == 1
        assert {r["name"] for r in merged.records} == {"serve.op.submit", "worker.task"}

    def test_trace_filter_and_ordering(self, tmp_path):
        target = tmp_path / "spans.jsonl"
        configure_tracing(target)
        with span("a"):
            with span("b"):
                pass
        shutdown_tracing()
        merged = load_spans([target])
        trace_id = merged.trace_ids[0]
        picked = merged.for_trace(trace_id)
        assert [r["name"] for r in picked] == ["a", "b"]
        assert load_spans([target], trace_id="nope").records == []

    def test_legacy_records_get_synthetic_ids(self, tmp_path):
        target = tmp_path / "legacy.jsonl"
        target.write_text(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "name": "old",
                    "span_id": 1,
                    "parent_id": None,
                    "start_ns": 0,
                    "end_ns": 10,
                    "dur_ns": 10,
                    "pid": 42,
                    "thread": 1,
                    "attrs": {},
                }
            )
            + "\n"
        )
        merged = load_spans([target])
        assert merged.records[0]["sid"] == "legacy-42-1"
        assert merged.records[0]["psid"] is None
        assert merged.records[0]["trace_id"] == ""

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            find_span_files([tmp_path / "nope"])


class TestObsCli:
    @pytest.fixture()
    def span_file(self, tmp_path):
        target = tmp_path / "spans.jsonl"
        configure_tracing(target)
        with span("client.submit", trace="t"):
            with span("serve.op.submit", op="submit"):
                pass
        shutdown_tracing()
        return target

    def test_timeline_renders(self, span_file, capsys):
        assert obs_main(["timeline", str(span_file)]) == 0
        out = capsys.readouterr().out
        assert "client.submit" in out and "phases:" in out

    def test_timeline_json(self, span_file, capsys):
        assert obs_main(["timeline", str(span_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-obs-timeline/1"
        assert payload["spans"] == 2

    def test_export_chrome_trace(self, span_file, tmp_path, capsys):
        out_path = tmp_path / "job.trace.json"
        assert obs_main(["export", str(span_file), "--chrome-trace", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["traceEvents"]) == 2

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert obs_main(["timeline", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_traced_spans_exits_1(self, tmp_path, capsys):
        target = tmp_path / "empty.jsonl"
        target.write_text("")
        assert obs_main(["timeline", str(target)]) == 1

    def test_repro_cli_routes_obs(self, span_file, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["obs", "timeline", str(span_file)]) == 0
        assert "client.submit" in capsys.readouterr().out
