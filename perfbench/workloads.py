"""The benchmark's workloads, generated from a seed.

Every workload runs the same three phases, each over its own trace family,
so every run reports every end-to-end metric:

* offline: every file analysed with every spec, one fresh
  ``Session([spec]).run(path)`` per (file, spec), as ``repro analyze`` does;
* served jobs: a closed loop over one connection, submitting a trace with
  ``submit_text`` for ``shb+tc+detect`` and ``shb+vc+detect`` and waiting
  for both cells before submitting the next;
* streamed ingest: traces fed through ``stream_begin``/``feed``/``end``.

What differs is the family, which decides the layer that carries the time
(see ``NOTES.md`` for the reasons and the predictions).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.gen import scenarios, suite
from repro.gen.random_trace import generate_trace
from repro.trace.colfmt import write_colf
from repro.trace.io import dumps_std, save_trace
from repro.trace.trace import Trace

#: The paper's "+Analysis" configurations, in the order the metrics list them.
SPECS: Tuple[str, ...] = (
    "hb+tc+detect",
    "hb+vc+detect",
    "shb+tc+detect",
    "shb+vc+detect",
    "maz+tc+detect",
    "maz+vc+detect",
)

#: The two cells every served submission and stream asks for.
SERVED_SPECS: Tuple[str, ...] = ("shb+tc+detect", "shb+vc+detect")

#: serve's default segment-parallel threshold is 100_000 events; the large
#: served traces sit at it, so the default-on parallel path runs for them.
LARGE_EVENTS = 100_000

Generator = Callable[[int, int], Trace]


def metric_key(spec: str) -> str:
    """``"hb+tc+detect"`` -> ``"hb_tc"``, the spec's prefix in metric names."""
    order, clock = spec.split("+")[:2]
    return f"{order}_{clock}"


def _sync(scenario: str) -> Generator:
    make = scenarios.SCENARIOS[scenario]
    return lambda events, seed: make(40, events, seed).with_name(f"{scenario}-t40-s{seed}")


def _profile(name: str, **overrides: int) -> Generator:
    config = replace(suite.get_profile(name).config, **overrides)

    def make(events: int, seed: int) -> Trace:
        return generate_trace(replace(config, num_events=events, seed=seed, name=f"{name}-s{seed}"))

    return make


@dataclass(frozen=True)
class Workload:
    #: (generator, events, on-disk format) of each offline file.
    offline: Tuple[Tuple[Generator, int, str], ...]
    #: Served base traces rotate through these generators; every served
    #: submission is a relabelled copy of one base (see ``relabel``).
    served: Tuple[Generator, ...]
    served_bases: int
    served_events: int
    submissions: int
    stream: Generator
    stream_events: int
    streams: int
    #: The small trace checked against the graph oracle.
    oracle: Generator
    #: Submissions (by index) that send a relabelled LARGE_EVENTS trace.
    large_at: Tuple[int, ...] = ()
    large: Optional[Generator] = None


WORKLOADS: Dict[str, Workload] = {
    "sync-scaling": Workload(
        offline=((_sync("single_lock"), 12_000, "colf"), (_sync("star_topology"), 12_000, "colf")),
        # single_lock jobs take about twice as long as star jobs.  A 1:2 mix
        # puts the latency p50 inside the star mode and the p90 inside the
        # single_lock mode; at 1:1 the p50 would sit on the gap between them.
        served=(_sync("single_lock"), _sync("star_topology"), _sync("star_topology")),
        served_bases=9,
        served_events=6_000,
        submissions=140,
        stream=_sync("single_lock"),
        stream_events=30_000,
        streams=6,
        oracle=_sync("single_lock"),
    ),
    "serve-mixed": Workload(
        offline=((_profile("lusearch-like"), 6_000, "std.gz"), (_profile("comd-56-like"), 3_000, "std.gz")),
        served=(_profile("cassandra-like"), _profile("hsqldb-like"), _profile("graphchi-like")),
        served_bases=9,
        served_events=1_500,
        submissions=160,
        large_at=(40, 121),
        large=_profile("hsqldb-like"),
        stream=_profile("hsqldb-like"),
        stream_events=20_000,
        streams=5,
        # Few variables, so the 240-event oracle trace holds every race kind.
        oracle=_profile("cassandra-like", num_threads=8, num_variables=12),
    ),
}

#: ``--tiny`` divides every event count by this (the self-test's size).
TINY_DIVISOR = 20


def derive_seed(seed: int, role: str, index: int) -> int:
    """A distinct, reproducible generator seed per (run seed, role, index)."""
    roles = {"offline": 1, "served": 2, "large": 3, "stream": 4, "oracle": 5}
    return seed * 1_000_003 + roles[role] * 100_003 + index


def relabel(text: str, label: str) -> str:
    """Rename every variable and lock of an STD trace by prefixing ``label``.

    The relabelled trace has its own content digest but the same shape, so
    it costs the server the same work and yields the base's races, each
    variable prefixed with ``label``.
    """
    return text.replace("(x", f"({label}x").replace("(l", f"({label}l")


@dataclass
class ServedTrace:
    name: str
    events: int
    text: str
    #: Index into ``Inputs.bases`` and the relabel prefix applied to it.
    base: int
    label: str


@dataclass
class Inputs:
    """Everything one set-up produces: files on disk and served traces in memory."""

    files: List[Dict[str, object]]
    bases: List[Trace]
    served: List[ServedTrace]
    streams: List[ServedTrace]


def build_inputs(workload: Workload, seed: int, directory: Path, tiny: bool) -> Inputs:
    """Generate the workload's traces and write its offline files."""
    scale = TINY_DIVISOR if tiny else 1
    files: List[Dict[str, object]] = []
    for index, (make, events, fmt) in enumerate(workload.offline):
        trace = make(events // scale, derive_seed(seed, "offline", index))
        path = directory / f"{trace.name}.{fmt}"
        if fmt == "colf":
            write_colf(iter(trace), path)
        else:
            save_trace(trace, path)
        files.append({"path": str(path), "name": trace.name, "events": len(trace)})
    bases = [
        workload.served[index % len(workload.served)](
            workload.served_events // scale, derive_seed(seed, "served", index)
        )
        for index in range(workload.served_bases)
    ]
    large = workload.large is not None and not tiny
    if large:
        bases.append(workload.large(LARGE_EVENTS, derive_seed(seed, "large", 0)))  # type: ignore[misc]
    bases.append(workload.stream(workload.stream_events // scale, derive_seed(seed, "stream", 0)))
    texts = [dumps_std(trace) for trace in bases]

    def variant(base: int, label: str) -> ServedTrace:
        return ServedTrace(
            name=f"{bases[base].name}-{label}",
            events=len(bases[base]),
            text=relabel(texts[base], label),
            base=base,
            label=label,
        )

    served = []
    for index in range(12 if tiny else workload.submissions):
        if large and index in workload.large_at:
            served.append(variant(workload.served_bases, f"L{index}"))
        else:
            served.append(variant(index % workload.served_bases, f"v{index}"))
    streams = [variant(len(bases) - 1, f"s{index}") for index in range(workload.streams)]
    return Inputs(files=files, bases=bases, served=served, streams=streams)


def oracle_trace(workload: Workload, seed: int) -> Trace:
    """The small seeded trace checked against the graph oracle in set-up."""
    return workload.oracle(240, derive_seed(seed, "oracle", 0))

