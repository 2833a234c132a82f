"""Timeline reconstruction over merged distributed spans.

Given the flat record set :mod:`repro.obs.merge` produced for one
``trace_id``, this module rebuilds the job's story:

* a **span tree** re-nested on the hex ``sid``/``psid`` ids (the ids
  that survive process boundaries, unlike the legacy per-process
  integers),
* **phase totals** — every span is classified into one lifecycle phase
  (submit / queue / dispatch / analyze / persist) and the per-phase
  wall time is summed,
* the **critical path** — the chain of spans from the trace root to the
  latest-finishing leaf, with each hop's duration, and
* renderings: an ASCII gantt for terminals and a Chrome/Perfetto
  trace-event JSON (``chrome://tracing`` "X" complete events) for
  everything else.

Monotonic stamps are comparable across processes on one machine
(CLOCK_MONOTONIC is system-wide on Linux); the chrome export prefers
``start_unix_ns`` so traces merged across hosts still land on one axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Span-name prefix → lifecycle phase. First match wins.
_PHASE_RULES: Tuple[Tuple[str, str], ...] = (
    ("client.submit", "submit"),
    ("client.stream", "submit"),
    ("serve.op.submit", "submit"),
    ("serve.op.analyze", "submit"),
    ("serve.op.stream", "submit"),
    ("serve.stream", "submit"),
    ("job.queue_wait", "queue"),
    ("job.persist", "persist"),
    ("worker.task", "analyze"),
    ("serve.execute_task", "analyze"),
    ("session.run", "analyze"),
)

#: The phase order used by reports (reconstruction completeness checks
#: in CI key off these names).
PHASES: Tuple[str, ...] = (
    "submit",
    "queue",
    "dispatch",
    "analyze",
    "persist",
)


def phase_of(name: str) -> Optional[str]:
    """The lifecycle phase a span name belongs to, or ``None``."""
    for prefix, phase in _PHASE_RULES:
        if name.startswith(prefix):
            return phase
    return None


@dataclass
class SpanNode:
    """One span re-attached to its tree position."""

    record: Dict[str, object]
    children: List["SpanNode"] = field(default_factory=list)
    depth: int = 0

    @property
    def sid(self) -> str:
        return str(self.record.get("sid", ""))

    @property
    def name(self) -> str:
        return str(self.record.get("name", ""))

    @property
    def start_ns(self) -> int:
        return int(self.record.get("start_ns", 0))

    @property
    def end_ns(self) -> int:
        return int(self.record.get("end_ns", 0))

    @property
    def dur_ns(self) -> int:
        return int(self.record.get("dur_ns", self.end_ns - self.start_ns))


def build_tree(records: Sequence[Dict[str, object]]) -> List[SpanNode]:
    """Re-nest records on ``sid``/``psid``; returns the root nodes.

    A span whose parent never made it to disk (crashed worker, remote
    parent span still open) becomes a root — the tree is best-effort,
    never empty just because one file is missing.
    """
    nodes: Dict[str, SpanNode] = {}
    ordered: List[SpanNode] = []
    for record in records:
        node = SpanNode(record=record)
        sid = node.sid
        if sid and sid not in nodes:
            nodes[sid] = node
        ordered.append(node)
    roots: List[SpanNode] = []
    for node in ordered:
        psid = node.record.get("psid")
        parent = nodes.get(psid) if isinstance(psid, str) else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for root in roots:
        _set_depths(root, 0)
    for bucket in nodes.values():
        bucket.children.sort(key=lambda n: n.start_ns)
    roots.sort(key=lambda n: n.start_ns)
    return roots


def _set_depths(node: SpanNode, depth: int) -> None:
    stack = [(node, depth)]
    while stack:
        current, d = stack.pop()
        current.depth = d
        for child in current.children:
            stack.append((child, d + 1))


def _walk(roots: Sequence[SpanNode]) -> List[SpanNode]:
    out: List[SpanNode] = []
    stack = list(reversed(list(roots)))
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out


def critical_path(roots: Sequence[SpanNode]) -> List[SpanNode]:
    """The chain from the earliest root to the latest-finishing leaf.

    At each level the child whose subtree finishes last is followed —
    the spans on this chain are the ones whose shortening shortens the
    job.
    """
    if not roots:
        return []
    start = min(roots, key=lambda n: n.start_ns)
    path = [start]
    node = start
    while node.children:
        node = max(node.children, key=_subtree_end)
        path.append(node)
    return path


def _subtree_end(node: SpanNode) -> int:
    end = node.end_ns
    stack = list(node.children)
    while stack:
        current = stack.pop()
        if current.end_ns > end:
            end = current.end_ns
        stack.extend(current.children)
    return end


def _chain_extent_ns(chain: Sequence[SpanNode]) -> int:
    """Wall extent of a critical path: the chain's spans nest, so summing
    their durations would multiply-count the overlap."""
    if not chain:
        return 0
    return max(n.end_ns for n in chain) - min(n.start_ns for n in chain)


@dataclass
class Timeline:
    """One trace's reconstructed lifecycle."""

    trace_id: str
    roots: List[SpanNode]
    phase_totals_ns: Dict[str, int]
    critical_path: List[SpanNode]
    span_count: int
    pids: List[int]
    wall_ns: int
    dispatch_gap_ns: int

    def as_dict(self) -> Dict[str, object]:
        """JSON form (``repro obs timeline --json``)."""
        return {
            "schema": "repro-obs-timeline/1",
            "trace_id": self.trace_id,
            "spans": self.span_count,
            "pids": self.pids,
            "wall_ns": self.wall_ns,
            "phases_ns": {p: self.phase_totals_ns.get(p, 0) for p in PHASES},
            "critical_path": [
                {
                    "name": node.name,
                    "sid": node.sid,
                    "dur_ns": node.dur_ns,
                    "pid": node.record.get("pid"),
                    "attrs": node.record.get("attrs", {}),
                }
                for node in self.critical_path
            ],
            "critical_path_ns": _chain_extent_ns(self.critical_path),
            "tree": [self._node_dict(root) for root in self.roots],
        }

    def _node_dict(self, node: SpanNode) -> Dict[str, object]:
        return {
            "name": node.name,
            "sid": node.sid,
            "start_ns": node.start_ns,
            "dur_ns": node.dur_ns,
            "pid": node.record.get("pid"),
            "phase": phase_of(node.name),
            "attrs": node.record.get("attrs", {}),
            "children": [self._node_dict(child) for child in node.children],
        }


def build_timeline(trace_id: str, records: Sequence[Dict[str, object]]) -> Timeline:
    """Reconstruct one trace's :class:`Timeline` from its merged records."""
    roots = build_tree(records)
    every = _walk(roots)
    totals: Dict[str, int] = {}
    # Count each phase at its topmost span only: a serve.op.submit nested
    # in a client.submit is the same submit, not a second one.
    stack: List[Tuple[SpanNode, Optional[str]]] = [(root, None) for root in roots]
    while stack:
        node, enclosing = stack.pop()
        phase = phase_of(node.name)
        if phase is not None and phase != enclosing:
            totals[phase] = totals.get(phase, 0) + node.dur_ns
        inherited = phase if phase is not None else enclosing
        stack.extend((child, inherited) for child in node.children)
    dispatch_gap = _dispatch_gap_ns(every)
    if dispatch_gap > 0:
        totals["dispatch"] = totals.get("dispatch", 0) + dispatch_gap
    wall = (
        max(n.end_ns for n in every) - min(n.start_ns for n in every) if every else 0
    )
    pids = sorted({int(n.record.get("pid", 0)) for n in every if n.record.get("pid")})
    return Timeline(
        trace_id=trace_id,
        roots=roots,
        phase_totals_ns=totals,
        critical_path=critical_path(roots),
        span_count=len(every),
        pids=pids,
        wall_ns=wall,
        dispatch_gap_ns=dispatch_gap,
    )


def _dispatch_gap_ns(nodes: Sequence[SpanNode]) -> int:
    """Dispatch latency: queue-wait end → matching worker-task start.

    Nobody is "inside" dispatch as code (the gap covers pool handoff +
    worker pickup), so it is computed from the stamps of the two spans
    that bracket it, matched on the job/task id attribute.  Monotonic
    stamps are machine-wide, so the cross-process subtraction is sound
    on one host; negative gaps (cross-host merges) clamp to zero.
    """
    queue_end: Dict[str, int] = {}
    task_start: Dict[str, int] = {}
    for node in nodes:
        attrs = node.record.get("attrs")
        if not isinstance(attrs, dict):
            continue
        job = attrs.get("job") or attrs.get("task")
        if not isinstance(job, str):
            continue
        if node.name == "job.queue_wait":
            queue_end[job] = max(queue_end.get(job, 0), node.end_ns)
        elif node.name == "worker.task":
            prev = task_start.get(job)
            if prev is None or node.start_ns < prev:
                task_start[job] = node.start_ns
    total = 0
    for job, end in queue_end.items():
        start = task_start.get(job)
        if start is not None and start > end:
            total += start - end
    return total


# -- renderings --------------------------------------------------------------------------


def format_ns(ns: int) -> str:
    """Human duration: ns → µs/ms/s at sensible precision."""
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.1f}ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.1f}µs"
    return f"{ns}ns"


def render_gantt(timeline: Timeline, width: int = 72) -> str:
    """ASCII gantt: one row per span, bars on a shared monotonic axis."""
    every = _walk(timeline.roots)
    if not every:
        return "(no spans)"
    t0 = min(n.start_ns for n in every)
    t1 = max(n.end_ns for n in every)
    extent = max(t1 - t0, 1)
    label_width = min(max(len(n.name) + 2 * n.depth for n in every) + 2, 44)
    lines = [
        f"trace {timeline.trace_id}  ·  {timeline.span_count} spans"
        f"  ·  {len(timeline.pids)} process(es)  ·  wall {format_ns(timeline.wall_ns)}"
    ]
    for node in every:
        begin = int((node.start_ns - t0) * width / extent)
        length = max(int(node.dur_ns * width / extent), 1)
        begin = min(begin, width - 1)
        length = min(length, width - begin)
        bar = " " * begin + "█" * length
        label = ("  " * node.depth + node.name)[:label_width].ljust(label_width)
        lines.append(f"{label}|{bar.ljust(width)}| {format_ns(node.dur_ns)}")
    lines.append("")
    lines.append("phases:")
    for phase in PHASES:
        total = timeline.phase_totals_ns.get(phase, 0)
        if total:
            lines.append(f"  {phase:<9} {format_ns(total)}")
    chain = timeline.critical_path
    if chain:
        lines.append(f"critical path ({format_ns(_chain_extent_ns(chain))}):")
        for node in chain:
            lines.append(f"  {'  ' * node.depth}{node.name}  {format_ns(node.dur_ns)}")
    return "\n".join(lines)


def to_chrome_trace(records: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Chrome/Perfetto trace-event JSON (load via ``chrome://tracing``).

    Each span becomes one complete ("X") event; timestamps prefer the
    unix stamp so multi-host merges share an axis, falling back to the
    monotonic stamp for legacy records.
    """
    events: List[Dict[str, object]] = []
    for record in records:
        start_unix = record.get("start_unix_ns")
        base = start_unix if isinstance(start_unix, int) and start_unix else record.get("start_ns", 0)
        dur_ns = record.get("dur_ns", 0)
        args: Dict[str, object] = {
            "trace_id": record.get("trace_id", ""),
            "sid": record.get("sid", ""),
            "psid": record.get("psid"),
        }
        attrs = record.get("attrs")
        if isinstance(attrs, dict):
            args.update(attrs)
        if record.get("error"):
            args["error"] = record["error"]
        events.append(
            {
                "name": record.get("name", "?"),
                "cat": phase_of(str(record.get("name", ""))) or "span",
                "ph": "X",
                "ts": int(base) / 1_000.0,
                "dur": int(dur_ns) / 1_000.0,
                "pid": record.get("pid", 0),
                "tid": record.get("thread", 0),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
