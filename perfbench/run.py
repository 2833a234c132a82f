"""The repository benchmark: trace bytes in, races out, offline and served.

Run from the repository root::

    python3 perfbench/run.py --workload sync-scaling --seed 1 --seconds 20 --trace 0

One run sets the workload up three times (trace generation, file writing and
a ``repro serve`` start; ``setup_s`` is the median), checks one small seeded
trace against the graph oracle, then measures three phases (see
``workloads.py``): offline analysis of every file with every spec, a closed
loop of served submissions, and streamed ingest.  Every race list is checked:
TC against VC, served and streamed cells against an in-process run.  The last
stdout line is one JSON object; ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer split (see ``NOTES.md``).  Every timing is
reported at the nominal host speed, scaled by host-speed samples taken next
to it (see ``hostref.py``).  The exit code is 1 when a correctness check
fails and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostref

HERE = Path(__file__).resolve().parent
SETUPS = 3
#: Host-speed samples taken before and after each set-up's trace generation.
#: None follow the server start, whose pool keeps spawning after it answers.
SETUP_SAMPLES = 10
#: Share of ``--seconds`` the offline rounds take; the served phases are a
#: fixed seeded list sized to fill most of the rest on a 2-core machine.
OFFLINE_SHARE = 0.44
#: Every run ends well inside the 180 s a run may take.
WATCHDOG_S = 170


class Watchdog(Exception):
    pass


def _alarm(_signum, _frame):
    raise Watchdog(f"run exceeded {WATCHDOG_S} s")


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _run_offline(files: List[Dict[str, object]], seconds: float, traced: bool) -> Dict[str, object]:
    job = json.dumps({"files": files, "seconds": seconds, "traced": traced})
    done = subprocess.run(
        [sys.executable, str(HERE / "offline.py")],
        input=job, capture_output=True, text=True, timeout=WATCHDOG_S - 20,
    )
    if done.returncode != 0:
        raise RuntimeError(f"offline phase failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _factor(ref_ns: float, samples: int) -> float:
    return ref_ns / samples / hostref.NOMINAL_NS


def _offline_factors(report: Dict[str, object], specs, traced: bool) -> Dict[str, float]:
    """Each spec's host factor over the offline rounds that were (not) traced."""
    rounds = [r for r in report["rounds"] if r["traced"] == traced]  # type: ignore[union-attr]
    return {
        spec: _factor(sum(r["ref_ns"][spec] for r in rounds), sum(r["ref_samples"][spec] for r in rounds))
        for spec in specs
    }


def _offline_rates(report: Dict[str, object], specs) -> Dict[str, float]:
    """Each spec's events / wall seconds, summed over the untraced rounds, at nominal speed."""
    rounds = [r for r in report["rounds"] if not r["traced"]]  # type: ignore[union-attr]
    factors = _offline_factors(report, specs, False)
    return {
        spec: sum(r["events"][spec] for r in rounds) / sum(r["ns"][spec] for r in rounds) * 1e9 * factors[spec]
        for spec in specs
    }


def _round_ns(round_: Dict[str, object]) -> float:
    """One offline round's time at nominal speed."""
    return sum(
        ns / _factor(round_["ref_ns"][spec], round_["ref_samples"][spec])  # type: ignore[index]
        for spec, ns in round_["ns"].items()  # type: ignore[union-attr]
    )


def _jobs_factor(jobs: Dict[str, object]) -> float:
    """The job phase's host factor, each submission weighted by its latency."""
    submissions = jobs["submissions"]
    return sum(s["latency_s"] for s in submissions) / sum(  # type: ignore[union-attr]
        s["latency_s"] / s["host_factor"] for s in submissions  # type: ignore[union-attr]
    )


def _end_to_end(offline, jobs, streams, setups, peak_kb, specs, metric_key):
    metrics: Dict[str, Dict[str, object]] = {}
    for spec, rate in _offline_rates(offline, specs).items():
        metrics[f"{metric_key(spec)}_events_per_s"] = _metric(rate, "events/s")
    latencies = [s["latency_s"] / s["host_factor"] for s in jobs["submissions"]]
    metrics["job_latency_p50_s"] = _metric(statistics.median(latencies), "s")
    metrics["job_latency_p90_s"] = _metric(statistics.quantiles(latencies, n=10)[8], "s")
    # One connection: the phase's wall time is its latencies plus the samples.
    cell_events = sum(s["events"] * s["jobs"] for s in jobs["submissions"])
    metrics["served_events_per_s"] = _metric(cell_events / sum(latencies), "events/s")
    metrics["stream_events_per_s"] = _metric(
        sum(s["events"] for s in streams["streams"]) / sum(s["elapsed_s"] for s in streams["streams"])
        * streams["host_factor"],
        "events/s",
    )
    metrics["setup_s"] = _metric(statistics.median(seconds / factor for seconds, factor in setups), "s")
    metrics["peak_rss_mb"] = _metric(peak_kb / 1024, "MB")
    return metrics


def _per_layer(offline, jobs, streams, setups, specs, metric_key):
    metrics: Dict[str, Dict[str, object]] = {}
    factors = _offline_factors(offline, specs, True)
    # Every traced time at nominal host speed.
    layers = {
        spec: {name: value / factors[spec] if name.endswith("_ns") else value
               for name, value in offline["layers"][spec].items()}
        for spec in specs
    }
    events = sum(layers[spec]["events"] for spec in specs)
    per_pass = offline["events_per_pass"]
    decode = sum(layers[spec]["decode_ns"] for spec in specs)
    walk_self = sum(
        layers[spec]["walk_ns"] - layers[spec]["decode_ns"] - layers[spec]["feed_ns"] for spec in specs
    )
    metrics["trace.decode_ns_per_event"] = _metric(decode / events, "ns")
    metrics["trace.events"] = _metric(per_pass, "count")
    metrics["api.walk_self_ns_per_event"] = _metric(walk_self / events, "ns")
    for spec in specs:
        key = metric_key(spec)
        layer = layers[spec]
        work = offline["work"][spec]
        detect = offline["detect"][spec]
        spec_events = layer["events"]
        metrics[f"analysis.{key}.self_ns_per_event"] = _metric(layer["analysis_self_ns"] / spec_events, "ns")
        metrics[f"detect.{key}.ns_per_event"] = _metric(layer["detect_ns"] / spec_events, "ns")
        metrics[f"detect.{key}.checks"] = _metric(detect["checks"], "count")
        metrics[f"detect.{key}.races"] = _metric(detect["races"], "count")
        metrics[f"clocks.{key}.ns_per_event"] = _metric(layer["clock_ns"] / spec_events, "ns")
        for name in ("joins", "copies", "entries_processed", "entries_updated"):
            metrics[f"clocks.{key}.{name}"] = _metric(work[name], "count")
        clock_ns_per_pass = layer["clock_ns"] * per_pass / spec_events
        metrics[f"clocks.{key}.ns_per_entry"] = _metric(
            clock_ns_per_pass / work["entries_processed"], "ns"
        )
        metrics[f"clocks.{key}.useful_ratio"] = _metric(
            work["entries_updated"] / work["entries_processed"], "ratio"
        )
    submissions = jobs["submissions"]
    jobs_factor = _jobs_factor(jobs)
    cells = [cell for s in submissions for cell in s["cells"].values()]
    latency = statistics.median(s["latency_s"] / s["host_factor"] for s in submissions)
    submit = statistics.median(s["submit_s"] / s["host_factor"] for s in submissions)
    worker = _p50([
        cell["elapsed_ns"] / 1e9 / s["host_factor"]
        for s in submissions for cell in s["cells"].values() if "elapsed_ns" in cell
    ])
    queue = jobs["queue_wait_mean_s"] / jobs_factor
    metrics["serve.submit_s.p50"] = _metric(submit, "s")
    metrics["serve.queue_wait_s.mean"] = _metric(queue, "s")
    metrics["serve.worker_s.p50"] = _metric(worker, "s")
    metrics["serve.overhead_s.p50"] = _metric(latency - submit - queue - worker, "s")
    metrics["serve.cells"] = _metric(len(cells), "count")
    metrics["serve.cells_failed"] = _metric(sum(1 for c in cells if c.get("status") != "done"), "count")
    for name in ("retries", "crashes"):
        metrics[f"serve.{name}"] = _metric(jobs["pool_after"][name] - jobs["pool_before"][name], "count")
    metrics["serve.stream_feed_s.p50"] = _metric(
        _p50([t for s in streams["streams"] for t in s["feed_s"]]) / streams["host_factor"], "s"
    )
    parallel = [cell for cell in cells if "parallel" in cell]
    metrics["parallel.cells"] = _metric(len(parallel), "count")
    metrics["parallel.worker_s"] = _metric(sum(
        cell["elapsed_ns"] / 1e9 / s["host_factor"]
        for s in submissions for cell in s["cells"].values() if "parallel" in cell
    ), "s")
    metrics["recovery.journal_bytes_per_job"] = _metric(jobs["journal_bytes"] / max(1, len(cells)), "B")
    rounds = offline["rounds"]
    untraced = statistics.median(_round_ns(r) for r in rounds if not r["traced"])
    traced = statistics.median(_round_ns(r) for r in rounds if r["traced"])
    metrics["trace_overhead_pct"] = _metric((traced / untraced - 1) * 100, "%")
    untraced_factors = _offline_factors(offline, specs, False)
    metrics["host.offline_factor"] = _metric(statistics.mean(untraced_factors.values()), "ratio")
    metrics["host.jobs_factor"] = _metric(jobs_factor, "ratio")
    metrics["host.stream_factor"] = _metric(streams["host_factor"], "ratio")
    metrics["host.setup_factor"] = _metric(statistics.median(factor for _, factor in setups), "ratio")
    return metrics


def measure(args: argparse.Namespace, work_dir: Path) -> Tuple[Dict[str, object], List[str], int]:
    import checks
    import served
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    failures: List[str] = []
    attempted = 0

    oracle = workloads.oracle_trace(workload, args.seed)
    failures += checks.oracle_failures(oracle)
    attempted += 6

    #: (seconds, host factor) of each set-up.
    setups: List[Tuple[float, float]] = []
    server: Optional[served.Server] = None
    try:
        for index in range(SETUPS):
            directory = work_dir / f"setup-{index}"
            host = hostref.HostIndex()
            host.burst(SETUP_SAMPLES)
            started = time.perf_counter()
            (directory / "files").mkdir(parents=True)
            (directory / "corpus").mkdir()
            inputs = workloads.build_inputs(workload, args.seed, directory / "files", args.tiny)
            paused = time.perf_counter()
            host.burst(SETUP_SAMPLES)
            started += time.perf_counter() - paused
            server = served.Server(directory / "corpus", directory / "server.log")
            setups.append((time.perf_counter() - started, host.factor()))
            if index < SETUPS - 1:
                failures += server.stop()
                server = None
                shutil.rmtree(directory)

        phase_started = time.perf_counter()
        offline = _run_offline(inputs.files, args.seconds * OFFLINE_SHARE, bool(args.trace))
        offline_s = time.perf_counter() - phase_started
        failures += offline["failures"]
        attempted += offline["attempted"]

        jobs = served.run_jobs(server, inputs.served)
        streams = served.run_streams(server, inputs.streams)
        print(
            f"phases: setup {statistics.median(s for s, _ in setups):.2f} s, offline {offline_s:.2f} s "
            f"({len(offline['rounds'])} rounds), jobs {sum(s['latency_s'] for s in jobs['submissions']):.2f} s, streams "
            f"{sum(s['elapsed_s'] for s in streams['streams']):.2f} s; host factors: offline "
            f"{statistics.mean(_offline_factors(offline, workloads.SPECS, False).values()):.3f}, "
            f"jobs {_jobs_factor(jobs):.3f}, streams {streams['host_factor']:.3f}, "
            f"setup {statistics.median(f for _, f in setups):.3f}",
            file=sys.stderr,
        )
        peak_kb = max(offline["peak_rss_kb"], server.peak_rss_kb())
    finally:
        if server is not None:
            try:
                failures += server.stop()
            finally:
                server.kill()

    failures += jobs["errors"]
    attempted += sum(s["jobs"] for s in jobs["submissions"]) + len(streams["streams"])
    if len(jobs["submissions"]) != len(inputs.served):
        failures.append(f"{len(jobs['submissions'])} of {len(inputs.served)} submissions finished")
    for submission in jobs["submissions"]:
        if submission["jobs"] != len(workloads.SERVED_SPECS):
            failures.append(f"served {submission['name']}: {submission['jobs']} cells queued")
    base_races = [checks.reference_races(trace) for trace in inputs.bases]
    references = {
        t.name: [t.label + pair for pair in base_races[t.base]] for t in inputs.served + inputs.streams
    }
    failures += checks.served_failures(jobs["submissions"], references)
    for stream in streams["streams"]:
        for spec, count in stream["race_counts"].items():
            if count != len(references[stream["name"]]):
                failures.append(f"stream {stream['name']} {spec}: {count} races")

    if args.trace:
        metrics = _per_layer(offline, jobs, streams, setups, workloads.SPECS, workloads.metric_key)
    else:
        metrics = _end_to_end(offline, jobs, streams, setups, peak_kb, workloads.SPECS, workloads.metric_key)
    return metrics, failures, attempted


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sync-scaling", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (the self-test's size)")
    args = parser.parse_args(argv)

    source = Path.cwd() / "src"
    if not (source / "repro").is_dir():
        print("perfbench: no src/repro here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    work_root = Path.cwd() / ".perfbench_work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WATCHDOG_S)
    try:
        work_dir.mkdir(parents=True)
        scratch = work_dir / "tmp"
        # multiprocessing puts the forkserver's socket under TMPDIR; keep it in
        # the checkout unless that path would pass the 107-byte AF_UNIX limit.
        if len(str(scratch)) <= 60:
            scratch.mkdir()
            os.environ["TMPDIR"] = str(scratch)
        metrics, failures, attempted = measure(args, work_dir)
    except Exception as error:  # noqa: BLE001 - no result line for a run that could not be made
        print(f"perfbench: run failed: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if work_dir.exists():
        failures.append(f"{work_dir} was left behind")

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"ops_attempted {attempted} count")
    print(f"ops_failed {len(failures)} count")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
