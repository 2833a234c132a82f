"""Offline phase, run as its own process so its peak RSS is the analysis's alone.

Reads a JSON job on stdin and writes one JSON report on stdout::

    {"files": [{"path", "name", "events"}], "seconds": 8.0, "traced": false}

Each round analyses every file with every spec, each (file, spec) pair in a
fresh ``Session([spec]).run(path)`` timed from opening the file to the
finished race list.  Each walk starts after a full garbage collection, so no
walk pays for another's garbage, and is bracketed by two host-speed kernel
samples (``hostref``), outside its timing.  Rounds repeat until ``seconds`` are spent.  In a traced
run the rounds alternate untraced / traced, so the tracing overhead is taken
under the same machine conditions, and one more pass per pair runs the
``+work`` spec for the exact clock work counts.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path.cwd() / "src"))

from repro.api import Session  # noqa: E402

import hostref  # noqa: E402
from layers import LayerProbe  # noqa: E402
from workloads import SPECS  # noqa: E402

MIN_ROUNDS = 3


def _walk(path: str, spec: str):
    gc.collect()
    ref_ns = hostref.sample()
    started = time.perf_counter_ns()
    result = Session([spec]).run(path)
    elapsed = time.perf_counter_ns() - started
    return result, elapsed, ref_ns + hostref.sample()


def run(job: Dict[str, object]) -> Dict[str, object]:
    files: List[Dict[str, object]] = job["files"]  # type: ignore[assignment]
    traced = bool(job["traced"])
    probe = LayerProbe() if traced else None
    if probe is not None:
        probe.calibrate()
    failures: List[str] = []
    attempted = 0
    reference: Dict[tuple, List[str]] = {}
    rounds: List[Dict[str, object]] = []
    layer_totals: Dict[str, Dict[str, float]] = {
        spec: {"decode_ns": 0.0, "feed_ns": 0.0, "clock_ns": 0.0, "detect_ns": 0.0,
               "analysis_self_ns": 0.0, "walk_ns": 0.0, "events": 0}
        for spec in SPECS
    }
    detect_counts: Dict[str, Dict[str, int]] = {}
    deadline = time.monotonic() + float(job["seconds"])  # type: ignore[arg-type]
    index = 0
    while index < MIN_ROUNDS * (2 if traced else 1) or time.monotonic() < deadline:
        tracing = traced and index % 2 == 1
        if tracing:
            probe.install()  # type: ignore[union-attr]
        spec_ns = {spec: 0 for spec in SPECS}
        spec_ref = {spec: 0 for spec in SPECS}
        spec_samples = {spec: 0 for spec in SPECS}
        spec_events = {spec: 0 for spec in SPECS}
        try:
            for entry in files:
                for spec in SPECS:
                    attempted += 1
                    result, elapsed, ref_ns = _walk(str(entry["path"]), spec)
                    analysis = result[spec]
                    spec_ns[spec] += elapsed
                    spec_ref[spec] += ref_ns
                    spec_samples[spec] += 2
                    spec_events[spec] += result.num_events
                    if result.num_events != entry["events"]:
                        failures.append(f"{entry['name']} {spec}: {result.num_events} events")
                    races = sorted(race.pair() for race in analysis.detection.races)
                    key = (entry["name"], spec)
                    if key not in reference:
                        reference[key] = races
                        detect_counts.setdefault(spec, {"checks": 0, "races": 0})
                        detect_counts[spec]["checks"] += analysis.detection.checks
                        detect_counts[spec]["races"] += analysis.detection.race_count
                    elif races != reference[key]:
                        failures.append(f"{entry['name']} {spec}: races differ between rounds")
                    if tracing:
                        totals = layer_totals[spec]
                        for name, value in probe.take_walk().items():  # type: ignore[union-attr]
                            totals[name] += value
                        totals["walk_ns"] += elapsed
                        totals["events"] += result.num_events
        finally:
            if tracing:
                probe.uninstall()  # type: ignore[union-attr]
        rounds.append({"traced": tracing, "ns": spec_ns, "events": spec_events,
                       "ref_ns": spec_ref, "ref_samples": spec_samples})
        index += 1
    for entry in files:
        for spec in SPECS:
            if spec.split("+")[1] != "tc":
                continue
            twin = spec.replace("+tc+", "+vc+")
            if reference[(entry["name"], spec)] != reference[(entry["name"], twin)]:
                failures.append(f"{entry['name']}: {spec} and {twin} race sets differ")
    report: Dict[str, object] = {
        "rounds": rounds,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "events_per_pass": sum(int(entry["events"]) for entry in files),  # type: ignore[arg-type]
    }
    if traced:
        work: Dict[str, Dict[str, int]] = {}
        for spec in SPECS:
            counts = {"joins": 0, "copies": 0, "entries_processed": 0, "entries_updated": 0}
            for entry in files:
                attempted += 1
                counter = _walk(str(entry["path"]), spec + "+work")[0][spec + "+work"].work
                for name in counts:
                    counts[name] += getattr(counter, name)
            work[spec] = counts
        report["attempted"] = attempted
        report["layers"] = layer_totals
        report["work"] = work
        report["detect"] = detect_counts
    return report


if __name__ == "__main__":
    print(json.dumps(run(json.load(sys.stdin))))
