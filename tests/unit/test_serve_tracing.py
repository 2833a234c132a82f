"""Distributed-trace propagation through the serve worker stack.

The wire hop is simulated in-process (``execute_task`` with a
``traceparent`` and an ``obs_dir``, exactly what a worker process
receives), and the crash-retry path runs against the real pool.  What
these pin is the CONTRIBUTING invariant: every span a worker emits is
parented under the submitting client's trace — a retry opens a *new*
span but stays in the *same* trace.
"""

import os

import pytest

from repro.obs import context as obs_context
from repro.obs.merge import load_spans
from repro.obs.tracing import configure_tracing, shutdown_tracing, tracing_enabled
from repro.serve.pool import WorkerPool, WorkerTask, execute_task
from repro.trace.colfmt import write_colf
from repro.trace.event import write as write_event


@pytest.fixture(autouse=True)
def clean_state():
    shutdown_tracing()
    yield
    shutdown_tracing()
    token = obs_context.attach_context(None)
    obs_context.detach_context(token)


@pytest.fixture
def colf_trace(tmp_path):
    events = [write_event(1 + (i % 2), "x", eid=i) for i in range(200)]
    path = tmp_path / "t.colf"
    write_colf(events, path, segment_events=50)
    return path


def one_trace(obs_dir, ctx):
    merged = load_spans([obs_dir])
    assert merged.corrupt_lines == 0
    records = merged.for_trace(ctx.trace_id)
    assert records, f"no spans for trace {ctx.trace_id}"
    return records


class TestExecuteTaskPropagation:
    def test_worker_configures_own_per_pid_exporter(self, tmp_path, colf_trace):
        obs_dir = tmp_path / "obs"
        obs_dir.mkdir()
        ctx = obs_context.new_context()
        task = WorkerTask(
            task_id="j1",
            trace_path=str(colf_trace),
            spec="hb",
            traceparent=ctx.to_traceparent(),
            obs_dir=str(obs_dir),
        )
        assert not tracing_enabled()
        execute_task(task)
        # The worker owned its exporter and tore it down again.
        assert not tracing_enabled()
        expected = obs_dir / f"spans-{os.getpid()}.jsonl"
        assert expected.is_file()

    def test_worker_spans_parent_under_remote_context(self, tmp_path, colf_trace):
        obs_dir = tmp_path / "obs"
        obs_dir.mkdir()
        ctx = obs_context.new_context()
        execute_task(
            WorkerTask(
                task_id="j1",
                trace_path=str(colf_trace),
                spec="hb",
                traceparent=ctx.to_traceparent(),
                obs_dir=str(obs_dir),
            )
        )
        records = one_trace(obs_dir, ctx)
        worker = next(r for r in records if r["name"] == "worker.task")
        assert worker["psid"] == ctx.span_id
        session = next(r for r in records if r["name"] == "session.run")
        assert session["psid"] == worker["sid"]
        assert {r["trace_id"] for r in records} == {ctx.trace_id}

    def test_without_traceparent_worker_starts_fresh_trace(self, tmp_path, colf_trace):
        obs_dir = tmp_path / "obs"
        obs_dir.mkdir()
        execute_task(
            WorkerTask(
                task_id="j1",
                trace_path=str(colf_trace),
                spec="hb",
                obs_dir=str(obs_dir),
            )
        )
        merged = load_spans([obs_dir])
        worker = next(r for r in merged.records if r["name"] == "worker.task")
        assert worker["psid"] is None
        assert worker["trace_id"]

    def test_existing_exporter_is_not_replaced(self, tmp_path, colf_trace):
        own = tmp_path / "own.jsonl"
        obs_dir = tmp_path / "obs"
        obs_dir.mkdir()
        configure_tracing(own)
        ctx = obs_context.new_context()
        execute_task(
            WorkerTask(
                task_id="j1",
                trace_path=str(colf_trace),
                spec="hb",
                traceparent=ctx.to_traceparent(),
                obs_dir=str(obs_dir),
            )
        )
        # Still enabled (the task must not shut down an exporter it did
        # not open), and the spans went to the caller's file.
        assert tracing_enabled()
        shutdown_tracing()
        assert not (obs_dir / f"spans-{os.getpid()}.jsonl").exists()
        names = {r["name"] for r in load_spans([own]).records}
        assert "worker.task" in names


class TestWorkerSessionSpans:
    def run_task(self, colf_trace, obs_dir):
        ctx = obs_context.new_context()
        execute_task(
            WorkerTask(
                task_id="j-seq",
                trace_path=str(colf_trace),
                spec="hb",
                traceparent=ctx.to_traceparent(),
                obs_dir=str(obs_dir),
            )
        )
        return one_trace(obs_dir, ctx)

    def test_sequential_run_has_no_chunk_spans(self, tmp_path, colf_trace):
        records = self.run_task(colf_trace, tmp_path)
        names = [r["name"] for r in records]
        assert "session.run" in names


class TestPoolCrashRetryTracing:
    def test_retry_gets_new_span_same_trace(self, tmp_path, colf_trace):
        obs_dir = tmp_path / "obs"
        obs_dir.mkdir()
        ctx = obs_context.new_context()
        pool = WorkerPool(workers=1).start()
        try:
            results = pool.run_batch(
                [
                    WorkerTask(
                        task_id="boom-once",
                        trace_path=str(colf_trace),
                        spec="hb",
                        fault="exit_once",
                        traceparent=ctx.to_traceparent(),
                        obs_dir=str(obs_dir),
                    )
                ],
                timeout=60,
            )
        finally:
            pool.terminate()
        payload, error, attempts = results["boom-once"]
        assert error is None and attempts == 2
        assert payload["events"] == 200
        records = one_trace(obs_dir, ctx)
        workers = [r for r in records if r["name"] == "worker.task"]
        # The first attempt died before tracing came up; the retry's span
        # is fresh but parented in the same trace.
        assert len(workers) == 1
        assert workers[0]["trace_id"] == ctx.trace_id
        assert workers[0]["psid"] == ctx.span_id
        assert workers[0]["sid"] != ctx.span_id
