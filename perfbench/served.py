"""The served phases: ``repro serve`` as a subprocess, a closed-loop client, streams.

The server runs in its own session (process group), so its forkserver and
worker processes can be killed together if anything fails, and so the
benchmark can prove after a shutdown that none of them is left.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

from repro.serve.client import ServeClient

import hostref
from workloads import SERVED_SPECS, ServedTrace

#: Status poll while waiting for a submission's cells.  Small jobs take
#: 40-200 ms end to end, so the default 0.1 s poll would round latency up.
POLL_S = 0.005
#: Lines per streamed ``feed`` message.
FEED_LINES = 512
#: Host-speed samples taken before a submission: ``SAMPLES`` plus one per
#: ``SAMPLE_EVENTS`` events of its trace.
SAMPLES = 2
SAMPLE_EVENTS = 10_000
#: A submission's host factor pools this many sample batches on each side.
SAMPLE_REACH = 2


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process, from procfs."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """One ``repro serve --workers 2 --port 0`` subprocess over its own corpus."""

    def __init__(self, corpus: Path, log: Path) -> None:
        self.corpus = corpus
        env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
        self._log = open(log, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1", "--port", "0",
             "--corpus", str(corpus), "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            start_new_session=True,
        )
        try:
            first = self.process.stdout.readline().decode()  # type: ignore[union-attr]
            if not first.startswith("serving on "):
                raise RuntimeError(f"server did not start: {first!r}")
            self.address = first.split()[2]
            with self.connect() as client:
                client.ping()
        except BaseException:
            self.kill()
            raise

    def connect(self) -> ServeClient:
        return ServeClient.connect(self.address, timeout=150.0)

    def peak_rss_kb(self) -> int:
        """Summed peak RSS of the server and its live analysis workers."""
        with self.connect() as client:
            workers = client.stats(metrics=False)["workers"]
        pids = [self.process.pid] + [int(row["pid"]) for row in workers if row.get("alive")]
        return sum(_vm_hwm_kb(pid) for pid in pids)

    def _group_alive(self) -> bool:
        try:
            os.killpg(self.process.pid, 0)
        except ProcessLookupError:
            return False
        return True

    def stop(self) -> List[str]:
        """Shut down through the ``shutdown`` op; report anything left behind."""
        failures: List[str] = []
        try:
            with self.connect() as client:
                client.shutdown()
            code = self.process.wait(timeout=30)
            if code != 0:
                failures.append(f"server exited with {code}")
        except Exception as error:  # noqa: BLE001 - any failure ends in a kill
            failures.append(f"server shutdown failed: {error}")
        deadline = time.monotonic() + 10
        while self._group_alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        if self._group_alive():
            failures.append("server left processes behind")
        self.kill()
        return failures

    def kill(self) -> None:
        """Kill the server, its forkserver and its workers, and reap the server."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def _histogram(stats: Dict[str, object], name: str) -> Dict[str, float]:
    return stats["metrics"].get(name, {"count": 0, "sum_ns": 0})  # type: ignore[union-attr]


def _batch(trace: ServedTrace) -> List[int]:
    return [hostref.sample() for _ in range(SAMPLES + trace.events // SAMPLE_EVENTS)]


def run_jobs(server: Server, traces: Sequence[ServedTrace]) -> Dict[str, object]:
    """The closed loop: submit a trace, wait for both its cells, submit the next.

    Host-speed samples are taken in batches between submissions, while the
    server is idle, and once more after the loop.  A submission's host
    factor is the mean of the ``SAMPLE_REACH`` batches before it and the
    ``SAMPLE_REACH`` after it.
    """
    with server.connect() as client:
        before = client.stats()
        batches: List[List[int]] = []
        submissions: List[Dict[str, object]] = []
        errors: List[str] = []
        try:
            for trace in traces:
                batches.append(_batch(trace))
                started = time.perf_counter()
                response = client.submit_text(trace.text, list(SERVED_SPECS), name=trace.name)
                submitted = time.perf_counter()
                rows = client.wait_for_jobs(response["jobs"], timeout=150.0, poll=POLL_S)
                finished = time.perf_counter()
                submissions.append({
                    "name": trace.name,
                    "digest": response["digest"],
                    "events": trace.events,
                    "jobs": len(response["jobs"]),
                    "latency_s": finished - started,
                    "submit_s": submitted - started,
                    "statuses": {str(row["job_id"]).split(":", 1)[1]: row["status"] for row in rows},
                })
        except Exception as error:  # noqa: BLE001 - reported as a failed phase
            errors.append(f"client failed: {type(error).__name__}: {error}")
        batches.append(_batch(traces[-1]))
    for index, submission in enumerate(submissions):
        around = [ns for batch in batches[max(0, index + 1 - SAMPLE_REACH):index + 1 + SAMPLE_REACH]
                  for ns in batch]
        submission["host_factor"] = sum(around) / len(around) / hostref.NOMINAL_NS
    with server.connect() as client:
        after = client.stats()
        results = client.results()
    for submission in submissions:
        submission["cells"] = {
            spec: dict(results.get(f"{submission['digest']}:{spec}", {}),
                       status=submission["statuses"].get(spec))
            for spec in SERVED_SPECS
        }
    wait_before = _histogram(before, "scheduler.queue_wait_ns")
    wait_after = _histogram(after, "scheduler.queue_wait_ns")
    waits = wait_after["count"] - wait_before["count"]
    journal = server.corpus / "journal.jsonl"
    return {
        "submissions": submissions,
        "errors": errors,
        "queue_wait_mean_s": (wait_after["sum_ns"] - wait_before["sum_ns"]) / waits / 1e9 if waits else 0.0,
        "pool_before": before["pool"],
        "pool_after": after["pool"],
        "journal_bytes": journal.stat().st_size if journal.exists() else 0,
    }


def run_streams(server: Server, streams: Sequence[ServedTrace]) -> Dict[str, object]:
    """Stream each trace in ``FEED_LINES`` messages; time ``stream_begin`` -> ``end``.

    A host-speed sample precedes every message, while the server is idle:
    the feeds are synchronous, so the stream's time is the sum of its
    messages' round trips.
    """
    rows: List[Dict[str, object]] = []
    index = hostref.HostIndex()
    with server.connect() as client:
        for trace in streams:
            lines = trace.text.splitlines()
            feeds: List[float] = []
            index.add(hostref.sample())
            started = time.perf_counter()
            handle = client.stream_begin(trace.name, list(SERVED_SPECS))
            elapsed = time.perf_counter() - started
            for start in range(0, len(lines), FEED_LINES):
                index.add(hostref.sample())
                fed = time.perf_counter()
                handle.feed_lines(lines[start:start + FEED_LINES])
                feeds.append(time.perf_counter() - fed)
            index.add(hostref.sample())
            ended = time.perf_counter()
            final = handle.end()
            elapsed += sum(feeds) + time.perf_counter() - ended
            rows.append({
                "name": trace.name,
                "events": int(final["events"]),
                "elapsed_s": elapsed,
                "feed_s": feeds,
                "race_counts": {key: spec["race_count"] for key, spec in final["specs"].items()},
            })
    return {"streams": rows, "host_factor": index.factor()}
