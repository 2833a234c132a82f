"""Lightweight spans: nested timed regions exported as JSON lines.

A *span* is one timed region of a run — a whole ``session.run`` walk, a
worker's ``serve.execute_task``, one streaming-ingest session — with
monotonic-ns start/end stamps, free-form attributes, and parent/child
nesting tracked through :mod:`contextvars` (so nesting is correct across
the serve handler threads without any caller bookkeeping)::

    from repro.obs import tracing

    with tracing.span("session.run", trace=digest, specs=len(specs)):
        with tracing.span("session.feed_batch", events=len(batch)):
            ...

Spans are exported as one JSON object per line in the ``repro-obs/1``
schema, append-only, flushed per span — so a crashed run still leaves
every finished span on disk, and a whole ``repro analyze`` /
``repro serve`` run can be reconstructed offline by reading the file
back (:func:`read_spans`) and re-nesting on ``parent_id``.

Every span also belongs to a *distributed trace*: it carries a
128-bit hex ``trace_id`` plus hex ``sid``/``psid`` span ids from
:mod:`repro.obs.context`.  A root span (no live local parent) first
consults the ambient :class:`~repro.obs.context.TraceContext` — the one
a serve worker attached after parsing the ``traceparent`` off its task —
and parents under it, which is what stitches client, server, and worker
span files into one tree.  The legacy integer ``span_id``/``parent_id``
fields remain for single-process nesting.

Tracing is *disabled* unless an exporter is configured
(:func:`configure_tracing`); a disabled :func:`span` call returns a
shared no-op context manager and touches no clocks, so leaving span
statements in non-hot paths is free.  Hot paths must still gate on
:func:`tracing_enabled` before calling :func:`span` per event or per
batch — the same discipline as :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextvars import ContextVar
from pathlib import Path
from typing import Dict, Iterator, List, Optional, TextIO, Union

from . import context as obs_context

#: Schema identifier stamped on every exported line.
SCHEMA = "repro-obs/1"

#: The innermost live span of the current context (thread / task).
_CURRENT: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span", default=None)

_ids_lock = threading.Lock()
_next_id = 0


def _new_span_id() -> int:
    global _next_id
    with _ids_lock:
        _next_id += 1
        return _next_id


class SpanExporter:
    """Append-only JSON-lines span sink (thread-safe, multi-writer safe).

    Path targets are opened ``O_APPEND`` and every record goes out as one
    :func:`os.write` of one encoded line, which POSIX guarantees lands as
    a contiguous append — so several processes (serve handler threads in
    the parent, N workers) can share one file without ever interleaving
    partial JSON.  Stream targets (stderr, ``StringIO``) keep the old
    lock + write + flush path.
    """

    def __init__(self, target: Union[str, Path, TextIO]) -> None:
        self._lock = threading.Lock()
        if isinstance(target, (str, Path)):
            self.path: Optional[Path] = Path(target)
            self._fd: Optional[int] = os.open(
                str(target), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            self._file: Optional[TextIO] = None
        else:
            self.path = None
            self._fd = None
            self._file = target

    def export(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, separators=(",", ":")) + "\n"
        if self._fd is not None:
            # One atomic append; no lock needed for correctness, but the
            # write itself is already a single syscall so none is taken.
            os.write(self._fd, line.encode("utf-8"))
            return
        with self._lock:
            if self._file is not None:
                self._file.write(line)
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


class _TracingState:
    """Module-global switch + exporter (one per process, like the registry)."""

    def __init__(self) -> None:
        self.enabled = False
        self.exporter: Optional[SpanExporter] = None


_STATE = _TracingState()


def configure_tracing(target: Union[str, Path, TextIO]) -> SpanExporter:
    """Enable tracing, exporting spans to ``target`` (path or open file)."""
    shutdown_tracing()
    exporter = SpanExporter(target)
    _STATE.exporter = exporter
    _STATE.enabled = True
    return exporter


def shutdown_tracing() -> None:
    """Disable tracing and close the exporter (idempotent)."""
    exporter, _STATE.exporter = _STATE.exporter, None
    _STATE.enabled = False
    if exporter is not None:
        exporter.close()


def tracing_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _STATE.enabled


class Span:
    """One live timed region; use via ``with span(...)`` (re-entrant safe)."""

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "trace_id",
        "sid",
        "psid",
        "start_ns",
        "end_ns",
        "start_unix_ns",
        "_token",
        "error",
    )

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = _new_span_id()
        self.parent_id: Optional[int] = None
        self.trace_id = ""
        self.sid = ""
        self.psid: Optional[str] = None
        self.start_ns = 0
        self.end_ns = 0
        self.start_unix_ns = 0
        self.error: Optional[str] = None
        self._token = None

    def set(self, **attrs: object) -> "Span":
        """Attach attributes mid-span (e.g. counts known only at the end)."""
        self.attrs.update(attrs)
        return self

    def context(self) -> obs_context.TraceContext:
        """This span's position as a propagatable :class:`TraceContext`."""
        return obs_context.TraceContext(trace_id=self.trace_id, span_id=self.sid)

    def __enter__(self) -> "Span":
        parent = _CURRENT.get()
        self.sid = obs_context.new_span_id()
        if parent is not None:
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
            self.psid = parent.sid
        else:
            remote = obs_context.current_context()
            if remote is not None:
                self.trace_id = remote.trace_id
                self.psid = remote.span_id
            else:
                self.trace_id = obs_context.new_trace_id()
                self.psid = None
        self._token = _CURRENT.set(self)
        self.start_unix_ns = time.time_ns()
        self.start_ns = time.monotonic_ns()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.end_ns = time.monotonic_ns()
        if self._token is not None:
            _CURRENT.reset(self._token)
        if exc_type is not None:
            self.error = f"{exc_type.__name__}: {exc_value}"
        exporter = _STATE.exporter
        if exporter is not None:
            exporter.export(self.as_record())

    def as_record(self) -> Dict[str, object]:
        """The exported JSON-lines representation of this span."""
        record: Dict[str, object] = {
            "schema": SCHEMA,
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "sid": self.sid,
            "psid": self.psid,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "dur_ns": self.end_ns - self.start_ns,
            "start_unix_ns": self.start_unix_ns,
            "pid": os.getpid(),
            "thread": threading.get_ident(),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if self.error is not None:
            record["error"] = self.error
        return record


class _NoopSpan:
    """The shared disabled-mode span: no clocks, no contextvars, no exports."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


def span(name: str, **attrs: object) -> Union[Span, _NoopSpan]:
    """A context-managed span named ``name`` with free-form attributes.

    Returns the shared no-op when tracing is disabled, so call sites are
    unconditional ``with`` statements outside hot loops.
    """
    if not _STATE.enabled:
        return _NOOP
    return Span(name, dict(attrs))


def current_span() -> Optional[Span]:
    """The innermost live span of the calling context, if any."""
    return _CURRENT.get()


def export_span(
    name: str,
    start_ns: int,
    end_ns: int,
    *,
    trace_id: str,
    parent_sid: Optional[str] = None,
    start_unix_ns: Optional[int] = None,
    **attrs: object,
) -> Optional[Dict[str, object]]:
    """Export a *synthetic* span whose interval was measured elsewhere.

    Used for intervals nobody is "inside" as code — a job's queue wait is
    measured between ``submit`` and ``dispatch``, then exported here as a
    first-class span of the job's trace.  Returns the record (or ``None``
    when tracing is disabled).
    """
    exporter = _STATE.exporter
    if exporter is None:
        return None
    record: Dict[str, object] = {
        "schema": SCHEMA,
        "kind": "span",
        "name": name,
        "span_id": _new_span_id(),
        "parent_id": None,
        "trace_id": trace_id,
        "sid": obs_context.new_span_id(),
        "psid": parent_sid,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "dur_ns": end_ns - start_ns,
        "start_unix_ns": (
            start_unix_ns
            if start_unix_ns is not None
            else time.time_ns() - (time.monotonic_ns() - start_ns)
        ),
        "pid": os.getpid(),
        "thread": threading.get_ident(),
    }
    if attrs:
        record["attrs"] = attrs
    exporter.export(record)
    return record


def read_spans(
    path: Union[str, Path],
    *,
    strict: bool = False,
    errors: Optional[List[str]] = None,
) -> List[Dict[str, object]]:
    """Load an exported span file back (offline reconstruction / tests).

    Corrupt or foreign lines are *skipped* by default — a span file may
    legitimately end in a torn line if a worker died mid-write — and
    described into ``errors`` when a list is supplied.  ``strict=True``
    restores the raising behavior for tests that pin the format.
    """
    return list(iter_spans(path, strict=strict, errors=errors))


def iter_spans(
    path: Union[str, Path],
    *,
    strict: bool = False,
    errors: Optional[List[str]] = None,
) -> Iterator[Dict[str, object]]:
    """Lazily parse a ``repro-obs/1`` JSON-lines span file (lenient by default)."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError as error:
                if strict:
                    raise ValueError(
                        f"{path}:{line_number}: not valid JSON: {error}"
                    ) from error
                if errors is not None:
                    errors.append(f"{path}:{line_number}: not valid JSON")
                continue
            if not isinstance(record, dict) or record.get("schema") != SCHEMA:
                if strict:
                    raise ValueError(
                        f"{path}:{line_number}: not a {SCHEMA!r} record: {text[:80]}"
                    )
                if errors is not None:
                    errors.append(f"{path}:{line_number}: not a {SCHEMA!r} record")
                continue
            yield record
