"""Correctness gates that sit outside every timed region."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.graph import GraphOrder
from repro.analysis.result import Race
from repro.api import Session
from repro.trace.event import Event
from repro.trace.trace import Trace

from workloads import SERVED_SPECS


def _oracle_races(trace: Trace, order: str, timestamps: List[Dict[int, int]]) -> List[str]:
    """The detectors' rule, evaluated on the oracle's timestamps.

    A detector checks an access against its thread's clock *before* the
    access's own incoming edges (a read's last write, MAZ's conflicts) are
    joined: the oracle timestamp of the thread's previous event, plus the
    access's own local time.  HB and SHB check a read against the last
    write and a write against the last write and every read since it; MAZ
    checks a read against the last write and a write against each thread's
    last access.  Generated traces have no fork or join events.
    """
    races: List[str] = []
    last_event: Dict[int, Event] = {}
    writes: Dict[object, Tuple[int, int]] = {}
    reads: Dict[object, Dict[int, int]] = {}
    for event in trace:
        local = trace.local_time(event)
        before = last_event.get(event.tid)
        clock = dict(timestamps[before.eid]) if before is not None else {}
        clock[event.tid] = local
        last_event[event.tid] = event
        if not event.is_access:
            continue
        variable = event.variable

        def check(tid: int, clk: int) -> None:
            if tid != event.tid and clk > clock.get(tid, 0):
                races.append(
                    Race(variable, tid, clk, event.eid, event.tid, event.kind.value).pair()
                )

        write_tid, write_clk = writes.get(variable, (0, 0))
        seen = reads.setdefault(variable, {})
        if order != "maz" or not event.is_write:
            if write_clk:
                check(write_tid, write_clk)
        if event.is_write:
            for tid, clk in seen.items():
                check(tid, clk)
            writes[variable] = (event.tid, local)
            if order != "maz":
                seen.clear()
        if order == "maz" or not event.is_write:
            seen[event.tid] = local
    return sorted(races)


def oracle_failures(trace: Trace) -> List[str]:
    """Check all six clock configurations against the graph oracle.

    For HB, SHB and MAZ, both clocks must give the oracle's vector
    timestamps and exactly the races the detectors' rule finds on them.
    """
    failures: List[str] = []
    for order in ("hb", "shb", "maz"):
        timestamps = GraphOrder(trace, order).timestamps()
        expected = _oracle_races(trace, order, timestamps)
        for clock in ("tc", "vc"):
            spec = f"{order}+{clock}+detect+ts"
            result = Session([spec]).run(trace)[spec]
            if result.timestamps != timestamps:
                failures.append(f"oracle: {spec} timestamps differ from the graph order")
            if sorted(race.pair() for race in result.detection.races) != expected:
                failures.append(f"oracle: {spec} races differ from the oracle's")
    return failures


def reference_races(trace: Trace) -> List[str]:
    """The in-process race list a served or streamed SHB cell must match."""
    spec = SERVED_SPECS[-1]
    return sorted(race.pair() for race in Session([spec]).run(trace)[spec].detection.races)


def served_failures(
    submissions: Sequence[Dict[str, object]], references: Dict[str, List[str]]
) -> List[str]:
    """Every served cell must finish and report exactly the reference races."""
    failures: List[str] = []
    for submission in submissions:
        name = str(submission["name"])
        cells: Dict[str, Dict[str, object]] = submission["cells"]  # type: ignore[assignment]
        for spec in SERVED_SPECS:
            cell = cells.get(spec)
            if cell is None or cell.get("status") != "done":
                failures.append(f"served {name} {spec}: {None if cell is None else cell.get('status')}")
            elif list(cell.get("races", ())) != references[name]:
                failures.append(f"served {name} {spec}: races differ from the in-process run")
    return failures
