"""The content-addressed :class:`TraceCorpus` behind the analysis service.

A corpus is a directory of ingested traces plus a JSON index of
per-trace statistics.  Ingest is *content-addressed*: every incoming
trace — an STD/CSV[.gz] or colf file, an in-memory :class:`Trace`, or a
raw event stream — streams through a SHA-256 digest over its canonical
STD line form (:func:`repro.trace.io.std_line`), so the digest depends
only on the logical event sequence.  The same trace submitted twice (or
once as CSV, once as gzipped STD, once as colf) dedupes to one stored
entry.  The bytes on disk are a binary colf container
(``traces/<digest>.colf``, format ``repro-trace/1``) — the digest is a
*content* address, deliberately independent of the *storage* encoding,
which lets the stored format evolve without invalidating a single
digest.  Workers then feed sessions straight from the mmap'd segment
columns instead of re-parsing text on every analysis job.

The index (``index.json``, schema ``repro-serve-corpus/2``) carries the
per-trace statistics the scheduler and ``repro status`` report — event /
thread / lock / variable counts and the sync-event share — plus
free-form tags for corpus queries (``corpus.entries(tag="captured")``)
and each entry's stored ``format``.  Version-1 indexes (whose traces
are gzipped STD under ``<digest>.std.gz``) still load: their entries
keep ``format: "std.gz"`` and are read through the text decoders.

Ingest is streaming and block-granular: events flow through a
bounded-memory pipeline (hash + stats + colf segment writer) one block
of events at a time, each block handled as whole columns, so a
multi-gigabyte trace file never materializes in memory and no step pays
a Python frame per event.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
import zlib
from dataclasses import dataclass, replace
from itertools import chain, compress, islice, repeat
from operator import is_
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..api.sources import FileSource
from ..trace.colfmt import ColfWriter, kind_codes
from ..trace.event import Event, OpKind
from ..trace.io import (
    TraceFormatError,
    infer_format,
    iter_csv_batches,
    iter_lines,
    iter_std_batches,
    iter_trace_chunks,
    iter_trace_file,
    std_line,
    std_op,
)
from ..trace.trace import Trace

#: Schema identifier of the corpus index; bumped on breaking layout changes.
INDEX_SCHEMA = "repro-serve-corpus/2"

#: Older index schemas this corpus still loads (entries keep their
#: original stored format; only new ingests use the current layout).
COMPAT_SCHEMAS = ("repro-serve-corpus/1",)

#: Stored-file format of entries from a version-1 index.
_LEGACY_FORMAT = "std.gz"

#: Stored-file format of freshly ingested entries.
_NATIVE_FORMAT = "colf"

#: Events per ingest block.  A block's transient fields, columns and
#: canonical text cost a few hundred bytes per event, so the block size
#: sets ingest's working set: 1024-event blocks ingest as fast as
#: 4096-event ones and keep it near the per-event path's.
_INGEST_BLOCK_EVENTS = 1024

#: Kind codes counted as synchronization for the per-trace statistics.
_SYNC_CODES = kind_codes((OpKind.ACQUIRE, OpKind.RELEASE, OpKind.FORK, OpKind.JOIN))


def _code_mask(*kinds: OpKind) -> bytes:
    """A ``bytes.translate`` table mapping the codes of ``kinds`` to 1, others to 0."""
    table = bytearray(256)
    for code in kind_codes(kinds):
        table[code] = 1
    return bytes(table)


_LOCK_MASK = _code_mask(OpKind.ACQUIRE, OpKind.RELEASE)
_ACCESS_MASK = _code_mask(OpKind.READ, OpKind.WRITE)

#: Target types whose equal values render the same STD op text.
_PLAIN_TARGET_TYPES = (str, int, type(None))


class _BlockStats:
    """The per-trace statistics of the index, accumulated a block at a time."""

    __slots__ = ("events", "sync_events", "threads", "locks", "variables")

    def __init__(self) -> None:
        self.events = 0
        self.sync_events = 0
        self.threads: set = set()
        self.locks: set = set()
        self.variables: set = set()

    def add(self, codes: bytes, tids: Sequence[int], targets: Sequence[object]) -> None:
        self.events += len(codes)
        self.sync_events += sum(map(codes.count, _SYNC_CODES))
        self.threads.update(tids)
        self.locks.update(compress(targets, codes.translate(_LOCK_MASK)))
        self.variables.update(compress(targets, codes.translate(_ACCESS_MASK)))


class _CanonicalText:
    """The canonical STD lines of event blocks, as :func:`std_line` renders them.

    Thread ids and ``(kind, target)`` pairs repeat throughout a trace, so
    the ``T<tid>`` and ``|<op>|`` fields are rendered once per distinct
    value and the lines of a block are joined at C speed.  That is exact
    when equal values render equally: ``int`` thread ids and ``str`` /
    ``int`` / ``None`` targets.  Blocks holding other types (``True``
    equals ``1`` but renders differently) are rendered event by event.
    """

    __slots__ = ("_tids", "_ops")

    def __init__(self) -> None:
        self._tids: Dict[int, str] = {}
        # One dict per kind: target -> "|<op>|".
        self._ops: Dict[OpKind, Dict[object, str]] = {kind: {} for kind in OpKind}

    def render(
        self,
        events: Sequence[Event],
        eids: Sequence[int],
        tids: Sequence[int],
        kinds: Sequence[OpKind],
        targets: Sequence[object],
    ) -> str:
        types = list(map(type, targets))
        if (
            sum(map(types.count, _PLAIN_TARGET_TYPES)) != len(types)
            or list(map(type, tids)).count(int) != len(tids)
        ):
            return "".join([std_line(event) + "\n" for event in events])
        tid_texts = list(map(self._tids.get, tids))
        if None in tid_texts:
            for tid in set(tids).difference(self._tids):
                self._tids[tid] = f"T{tid}"
            tid_texts = list(map(self._tids.__getitem__, tids))
        ops_by_kind = self._ops
        tables = list(map(ops_by_kind.__getitem__, kinds))
        ops = list(map(dict.get, tables, targets))
        if None in ops:
            for kind, target in set(compress(zip(kinds, targets), map(is_, ops, repeat(None)))):
                ops_by_kind[kind][target] = f"|{std_op(kind, target)}|"
            ops = list(map(dict.__getitem__, tables, targets))
        return "".join(
            chain.from_iterable(zip(tid_texts, ops, map(format, eids), repeat("\n")))
        )


def _ingest_block(
    events: Sequence[Event],
    hasher: "hashlib._Hash",
    canonical: _CanonicalText,
    writer: ColfWriter,
    stats: _BlockStats,
) -> None:
    """Hash, store and count one block of events, as whole columns."""
    eids, tids, kinds, targets = zip(*events)
    codes = kind_codes(kinds)
    hasher.update(canonical.render(events, eids, tids, kinds, targets).encode("utf-8"))
    writer.write_columns(codes, tids, targets)
    stats.add(codes, tids, targets)


class CorpusError(ValueError):
    """Raised on unusable corpus input (corrupt files, unknown digests)."""


@dataclass(frozen=True, slots=True)
class CorpusEntry:
    """One ingested trace: its digest, statistics and tags.

    ``digest`` is the SHA-256 over the canonical STD lines — the
    content address and primary key; ``format`` is the stored *encoding*
    (``"colf"`` for native ingests, ``"std.gz"`` for entries carried
    over from a version-1 index) and ``filename`` the stored file name
    relative to the corpus's ``traces/`` directory.
    """

    digest: str
    name: str
    events: int
    threads: int
    locks: int
    variables: int
    sync_events: int
    tags: Tuple[str, ...] = ()
    ingested_unix: float = 0.0
    format: str = _NATIVE_FORMAT

    @property
    def filename(self) -> str:
        """The canonical stored file name (relative to ``traces/``)."""
        return f"{self.digest}.{self.format}"

    @property
    def trace_fmt(self) -> str:
        """The :mod:`repro.trace.io` format key of the stored file."""
        return "colf" if self.format == _NATIVE_FORMAT else "std"

    @property
    def sync_fraction(self) -> float:
        """Share of events that are synchronization events."""
        return self.sync_events / self.events if self.events else 0.0

    def as_dict(self) -> Dict[str, object]:
        """The index representation of this entry."""
        return {
            "digest": self.digest,
            "name": self.name,
            "events": self.events,
            "threads": self.threads,
            "locks": self.locks,
            "variables": self.variables,
            "sync_events": self.sync_events,
            "tags": list(self.tags),
            "ingested_unix": self.ingested_unix,
            "format": self.format,
        }

    @classmethod
    def from_dict(
        cls, payload: Dict[str, object], default_format: str = _NATIVE_FORMAT
    ) -> "CorpusEntry":
        """Rebuild an entry from its index representation.

        ``default_format`` is the stored format assumed when the payload
        carries none — version-1 indexes predate the field, so their
        loader passes ``"std.gz"``.
        """
        return cls(
            digest=str(payload["digest"]),
            name=str(payload.get("name", "")),
            events=int(payload["events"]),  # type: ignore[arg-type]
            threads=int(payload.get("threads", 0)),  # type: ignore[arg-type]
            locks=int(payload.get("locks", 0)),  # type: ignore[arg-type]
            variables=int(payload.get("variables", 0)),  # type: ignore[arg-type]
            sync_events=int(payload.get("sync_events", 0)),  # type: ignore[arg-type]
            tags=tuple(payload.get("tags", ())),  # type: ignore[arg-type]
            ingested_unix=float(payload.get("ingested_unix", 0.0)),  # type: ignore[arg-type]
            format=str(payload.get("format", default_format)),
        )


IngestSource = Union[str, Path, Trace, Iterable[Event]]


class TraceCorpus:
    """A directory-backed, content-addressed store of analysis traces.

    Thread-safe: every server handler thread (and the streaming save
    path) shares one corpus, so ingests and index saves are serialized
    by an internal lock.
    """

    _ingest_counter = itertools.count()

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.traces_dir = self.root / "traces"
        self.traces_dir.mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / "index.json"
        self._entries: Dict[str, CorpusEntry] = {}
        self._lock = threading.RLock()
        self._load_index()

    # -- index persistence -------------------------------------------------------------

    def _load_index(self) -> None:
        if not self.index_path.exists():
            return
        try:
            payload = json.loads(self.index_path.read_text())
        except json.JSONDecodeError as error:
            raise CorpusError(f"{self.index_path}: corrupt corpus index ({error})") from error
        schema = payload.get("schema")
        if schema == INDEX_SCHEMA:
            default_format = _NATIVE_FORMAT
        elif schema in COMPAT_SCHEMAS:
            default_format = _LEGACY_FORMAT
        else:
            raise CorpusError(
                f"{self.index_path}: unsupported corpus index schema {schema!r} "
                f"(expected {INDEX_SCHEMA!r} or one of {COMPAT_SCHEMAS!r})"
            )
        for digest, entry in payload.get("traces", {}).items():
            self._entries[digest] = CorpusEntry.from_dict(entry, default_format=default_format)

    def _save_index(self) -> None:
        payload = {
            "schema": INDEX_SCHEMA,
            "traces": {digest: entry.as_dict() for digest, entry in self._entries.items()},
        }
        temp = self.index_path.with_suffix(".json.tmp")
        temp.write_text(json.dumps(payload) + "\n")
        os.replace(temp, self.index_path)

    # -- ingest ------------------------------------------------------------------------

    def ingest(
        self,
        source: IngestSource,
        name: Optional[str] = None,
        tags: Sequence[str] = (),
    ) -> Tuple[CorpusEntry, bool]:
        """Ingest a trace; returns ``(entry, created)``.

        ``source`` may be a trace file path (STD/CSV/colf, ``.gz``-aware,
        format sniffed from content), an in-memory :class:`Trace`, or any
        iterable of events.  Whatever the input encoding, the stored file
        is a colf container; the digest is over the canonical STD lines,
        so a trace whose logical content is already stored dedupes to the
        existing entry (``created`` is ``False``; new tags are merged in).
        Corrupt or truncated files — bad gzip streams, torn colf
        containers, malformed trace lines — raise :class:`CorpusError`
        and leave the corpus unchanged.
        """
        if isinstance(source, (str, Path)):
            default_name = Path(source).name
            batches: Iterable[Sequence[Event]] = iter_trace_chunks(
                source, fmt=infer_format(source), batch_size=_INGEST_BLOCK_EVENTS
            )
        elif isinstance(source, Trace):
            default_name = source.name or ""
            events = source.events
            batches = (
                events[start : start + _INGEST_BLOCK_EVENTS]
                for start in range(0, len(events), _INGEST_BLOCK_EVENTS)
            )
        else:
            default_name = ""
            iterator = iter(source)
            # Blocks of the event stream until islice comes back empty.
            batches = iter(lambda: list(islice(iterator, _INGEST_BLOCK_EVENTS)), [])
        return self._ingest_batches(
            batches, name=name if name is not None else default_name, tags=tags, origin=source
        )

    def ingest_text(
        self,
        text: str,
        fmt: str = "std",
        name: Optional[str] = None,
        tags: Sequence[str] = (),
    ) -> Tuple[CorpusEntry, bool]:
        """Ingest a trace submitted as STD or CSV text; otherwise exactly
        :meth:`ingest`.  The text is decoded a block of lines at a time
        (:func:`~repro.trace.io.iter_lines` into the chunked decoders), so
        no list of all its lines or events is ever built.
        """
        if fmt not in ("std", "csv"):
            raise ValueError(f"unknown trace text format {fmt!r}; expected 'std' or 'csv'")
        decode = iter_std_batches if fmt == "std" else iter_csv_batches
        batches = decode(iter_lines(text), batch_size=_INGEST_BLOCK_EVENTS)
        return self._ingest_batches(batches, name=name or "", tags=tags)

    def _ingest_batches(
        self,
        batches: Iterable[Sequence[Event]],
        name: str,
        tags: Sequence[str],
        origin: object = None,
    ) -> Tuple[CorpusEntry, bool]:
        hasher = hashlib.sha256()
        canonical = _CanonicalText()
        stats = _BlockStats()
        temp_path = self.traces_dir / (
            f".ingest-{os.getpid()}-{threading.get_ident()}-"
            f"{next(self._ingest_counter)}.tmp.colf"
        )
        try:
            with ColfWriter(temp_path) as writer:
                for batch in batches:
                    if batch:
                        _ingest_block(batch, hasher, canonical, writer, stats)
                    del batch  # free it before the next block is decoded
        except (TraceFormatError, EOFError, zlib.error, OSError) as error:
            temp_path.unlink(missing_ok=True)
            where = f" {origin}" if isinstance(origin, (str, Path)) else ""
            raise CorpusError(
                f"cannot ingest trace{where}: {type(error).__name__}: {error}"
            ) from error
        except BaseException:
            temp_path.unlink(missing_ok=True)
            raise

        digest = hasher.hexdigest()
        with self._lock:
            existing = self._entries.get(digest)
            if existing is not None:
                temp_path.unlink(missing_ok=True)
                merged_tags = tuple(sorted(set(existing.tags) | set(tags)))
                if merged_tags != existing.tags:
                    existing = replace(existing, tags=merged_tags)
                    self._entries[digest] = existing
                    self._save_index()
                return existing, False

            entry = CorpusEntry(
                digest=digest,
                name=name or digest[:12],
                events=stats.events,
                threads=len(stats.threads),
                locks=len(stats.locks),
                variables=len(stats.variables),
                sync_events=stats.sync_events,
                tags=tuple(sorted(set(tags))),
                ingested_unix=time.time(),
            )
            os.replace(temp_path, self.traces_dir / entry.filename)
            self._entries[digest] = entry
            self._save_index()
            return entry, True

    # -- lookup ------------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def __iter__(self) -> Iterator[CorpusEntry]:
        return iter(self.entries())

    def get(self, digest: str) -> CorpusEntry:
        """The entry stored under ``digest``; raises :class:`CorpusError` if absent."""
        with self._lock:
            entry = self._entries.get(digest)
        if entry is None:
            raise CorpusError(f"no trace with digest {digest!r} in corpus {self.root}")
        return entry

    def entries(self, tag: Optional[str] = None) -> List[CorpusEntry]:
        """All entries (optionally filtered by tag), oldest-ingested first."""
        with self._lock:
            selected = [
                entry
                for entry in self._entries.values()
                if tag is None or tag in entry.tags
            ]
        return sorted(selected, key=lambda entry: (entry.ingested_unix, entry.digest))

    def trace_path(self, digest: str) -> Path:
        """Path of the stored canonical trace file for ``digest``."""
        return self.traces_dir / self.get(digest).filename

    def open_source(self, digest: str) -> FileSource:
        """A lazy :class:`FileSource` over the stored trace (O(1) memory)."""
        entry = self.get(digest)
        return FileSource(self.trace_path(digest), fmt=entry.trace_fmt, name=entry.name)

    def load(self, digest: str) -> Trace:
        """The stored trace, materialized in memory."""
        entry = self.get(digest)
        return Trace(
            iter_trace_file(self.trace_path(digest), fmt=entry.trace_fmt), name=entry.name
        )

    def remove(self, digest: str) -> None:
        """Delete a stored trace and its index entry."""
        with self._lock:
            entry = self.get(digest)
            (self.traces_dir / entry.filename).unlink(missing_ok=True)
            del self._entries[digest]
            self._save_index()

    # -- summaries ---------------------------------------------------------------------

    @property
    def total_events(self) -> int:
        """Sum of the event counts of every stored trace."""
        with self._lock:
            return sum(entry.events for entry in self._entries.values())

    def summary(self) -> Dict[str, object]:
        """Corpus-level counts for ``repro status``."""
        return {
            "root": str(self.root),
            "traces": len(self),
            "events": self.total_events,
        }


