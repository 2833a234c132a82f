"""Unit tests of :mod:`repro.trace.colfmt` — the ``repro-trace/1`` container.

Three concerns:

* **Writer/reader mechanics** — round trips, segmentation, interning,
  eid canonicalization, empty traces, in-memory and file-backed
  containers, the mmap lifecycle.
* **Corruption hardening** — every malformed input (torn tail, bad
  magic, unknown version, truncated footer, out-of-range table
  indexes, text-mode handles) must raise a clean
  :class:`~repro.trace.io.TraceFormatError` naming a byte offset —
  never a bare ``struct.error`` / ``IndexError`` traceback.
* **Layout pinning** — a golden base64 container written by the v1
  writer is embedded below; it must keep decoding forever.  If a
  layout change breaks it, bump ``COLF_VERSION`` and add a back-compat
  reader path instead of editing the blob (see CONTRIBUTING).
"""

from __future__ import annotations

import base64
import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import event as ev
from repro.trace.event import Event, OpKind
from repro.trace.colfmt import (
    COLF_MAGIC,
    COLF_VERSION,
    ColfReader,
    ColfWriter,
    is_colf_prefix,
    iter_colf_batches,
    read_colf_events,
    write_colf,
)
from repro.trace.io import TraceFormatError
from util_traces import make_random_trace


def canonical(events):
    """The events with writer-assigned consecutive ordinals."""
    return [event._replace(eid=index) for index, event in enumerate(events)]


def small_events():
    return [
        ev.begin(1),
        ev.fork(1, 2),
        ev.write(1, "x"),
        ev.acquire(2, "l"),
        ev.read(2, "x"),
        ev.release(2, "l"),
        ev.join(1, 2),
        ev.end(1),
    ]


def pack_bytes(events, segment_events=65536):
    buffer = io.BytesIO()
    write_colf(events, buffer, segment_events=segment_events)
    return buffer.getvalue()


class TestRoundTrip:
    def test_round_trip_all_kinds(self):
        events = small_events()
        assert read_colf_events(pack_bytes(events)) == canonical(events)

    def test_round_trip_random_trace_file(self, tmp_path):
        trace = make_random_trace(seed=7, num_events=500, include_fork_join=True)
        path = tmp_path / "t.colf"
        count = write_colf(iter(trace), path)
        assert count == len(trace)
        assert read_colf_events(path) == list(trace)

    def test_eids_are_canonicalized(self):
        events = [ev.write(1, "x", eid=99), ev.read(2, "x", eid=-5)]
        got = read_colf_events(pack_bytes(events))
        assert [event.eid for event in got] == [0, 1]

    def test_empty_trace_is_a_valid_container(self):
        blob = pack_bytes([])
        assert read_colf_events(blob) == []
        with ColfReader(blob) as reader:
            assert len(reader) == 0
            assert reader.segments == ()
            assert reader.threads() == ()

    def test_segmentation_boundaries(self):
        events = [ev.write(1, f"v{index % 5}") for index in range(10)]
        with ColfReader(pack_bytes(events, segment_events=4)) as reader:
            assert [segment.count for segment in reader.segments] == [4, 4, 2]
            assert [segment.first_eid for segment in reader.segments] == [0, 4, 8]
            assert [segment.last_eid for segment in reader.segments] == [3, 7, 9]

    def test_segment_sliced_decode_equals_whole_file(self):
        events = [ev.write(index % 3 + 1, f"v{index % 7}") for index in range(25)]
        with ColfReader(pack_bytes(events, segment_events=6)) as reader:
            whole = list(reader.iter_events())
            sliced = [event for segment in reader.segments for event in segment.events()]
        assert sliced == whole == canonical(events)

    def test_iter_batches_resliced(self):
        events = [ev.read(1, "x") for _ in range(20)]
        blob = pack_bytes(events, segment_events=8)
        batches = list(iter_colf_batches(blob, batch_size=3))
        assert [event for batch in batches for event in batch] == canonical(events)
        assert all(len(batch) <= 3 for batch in batches)

    def test_threads_known_upfront_and_sorted(self):
        events = [ev.write(5, "x"), ev.write(2, "x"), ev.write(9, "x")]
        with ColfReader(pack_bytes(events)) as reader:
            assert reader.threads() == (2, 5, 9)

    def test_string_interning_shares_pool_entries(self):
        events = [ev.write(1, "hot") for _ in range(1000)]
        blob = pack_bytes(events)
        # 1000 repeats of the same variable must store the string once.
        assert blob.count(b"hot") == 1

    def test_write_batch_equals_write(self):
        events = small_events()
        one = io.BytesIO()
        with ColfWriter(one) as writer:
            for event in events:
                writer.write(event)
        many = io.BytesIO()
        with ColfWriter(many) as writer:
            writer.write_batch(events)
        assert one.getvalue() == many.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from([OpKind.FORK, OpKind.JOIN]),
                    st.sampled_from([0, 1, 2, 7, 12]),
                    st.sampled_from([1, 5, 9, 13, 5.0, True, "5"]),
                ),
                st.tuples(
                    st.sampled_from(list(OpKind)),
                    st.sampled_from([0, 1, 2, 7, 12, True]),
                    st.sampled_from(["x", "y", "l", "5", "", None, 1, True, 1.0, ("t", 5)]),
                ).filter(lambda cell: cell[0] not in (OpKind.FORK, OpKind.JOIN)),
            ),
            max_size=80,
        ),
        cuts=st.lists(st.integers(1, 30), max_size=10),
        segment_events=st.sampled_from([1, 3, 16, 65536]),
    )
    def test_write_batch_bulk_path_equals_write(self, cells, cuts, segment_events):
        # Fork/join targets that name new threads, strings first seen
        # mid-block, and values keyed by str() (1 vs True vs 1.0): the
        # bulk slot assignment must build the same tables as write().
        events = [Event(eid, tid, kind, target) for eid, (kind, tid, target) in enumerate(cells)]
        one = io.BytesIO()
        with ColfWriter(one, segment_events=segment_events) as writer:
            for event in events:
                writer.write(event)
        many = io.BytesIO()
        with ColfWriter(many, segment_events=segment_events) as writer:
            start = 0
            for cut in cuts + [len(events)]:
                writer.write_batch(events[start : start + cut])
                start += cut
        assert one.getvalue() == many.getvalue()

    def test_describe_payload(self):
        events = small_events()
        with ColfReader(pack_bytes(events, segment_events=3)) as reader:
            payload = reader.describe()
        assert payload["format"] == f"repro-trace/{COLF_VERSION}"
        assert payload["events"] == len(events)
        assert sorted(payload["threads"]) == [1, 2]
        assert set(payload["strings"]) == {"x", "l"}
        assert len(payload["segments"]) == 3

    def test_is_colf_prefix(self):
        assert is_colf_prefix(pack_bytes([]))
        assert is_colf_prefix(COLF_MAGIC)
        assert not is_colf_prefix(b"eid,tid,kind,target")
        assert not is_colf_prefix(b"")


class TestCorruption:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.colf"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match=r"truncated colf file \(0 bytes"):
            ColfReader(path)

    def test_bad_magic(self):
        blob = b"NOTCOLF!" + pack_bytes(small_events())[8:]
        with pytest.raises(TraceFormatError, match=r"bad magic .* at byte offset 0"):
            ColfReader(blob)

    def test_unknown_version(self):
        blob = bytearray(pack_bytes(small_events()))
        struct.pack_into("<I", blob, 8, 99)
        with pytest.raises(
            TraceFormatError, match=r"unsupported colf version 99 at byte offset 8"
        ):
            ColfReader(bytes(blob))

    def test_torn_tail(self):
        blob = pack_bytes(small_events())
        with pytest.raises(TraceFormatError, match=r"truncated|torn tail"):
            ColfReader(blob[:-5])

    def test_truncated_mid_columns(self):
        blob = pack_bytes(small_events())
        with pytest.raises(TraceFormatError, match=r"truncated|torn tail|byte offset"):
            ColfReader(blob[: len(blob) // 2])

    def test_footer_checksum_mismatch(self):
        blob = bytearray(pack_bytes(small_events()))
        # Flip one byte inside the footer (between columns and trailer).
        footer_offset = struct.unpack_from("<Q", blob, len(blob) - 20)[0]
        blob[footer_offset] ^= 0xFF
        with pytest.raises(TraceFormatError, match=r"footer checksum mismatch"):
            ColfReader(bytes(blob))

    def test_out_of_range_thread_index(self):
        events = [ev.write(1, "x"), ev.write(1, "x")]
        blob = bytearray(pack_bytes(events))
        # Column layout per segment: kinds (n bytes), then tid cells (n u32).
        # Patch event 1's tid cell (header is 16 bytes, kinds are 2 bytes).
        struct.pack_into("<I", blob, 16 + 2 + 4, 7_000)
        # The footer CRC only covers the footer, so the column patch is
        # caught by the bounds check, with the exact cell offset named.
        with pytest.raises(
            TraceFormatError,
            match=r"thread-table index 7000 \(table has 1 entries\) at byte offset 22",
        ):
            read_colf_events(bytes(blob))

    def test_out_of_range_target_index(self):
        events = [ev.write(1, "x"), ev.write(1, "x")]
        blob = bytearray(pack_bytes(events))
        # Target cells start after kinds (2 bytes) + tid cells (8 bytes).
        struct.pack_into("<I", blob, 16 + 2 + 8 + 4, 12_345)
        with pytest.raises(
            TraceFormatError, match=r"target-pool index 12345 .* at byte offset 30"
        ):
            read_colf_events(bytes(blob))

    def test_unknown_op_kind_code(self):
        events = [ev.write(1, "x")]
        blob = bytearray(pack_bytes(events))
        blob[16] = 250  # the single kind code
        with pytest.raises(
            TraceFormatError, match=r"unknown op-kind code 250 at byte offset 16"
        ):
            read_colf_events(bytes(blob))

    def test_text_mode_handle_rejected(self, tmp_path):
        path = tmp_path / "t.colf"
        write_colf(small_events(), path)
        with open(path, "r", errors="replace") as handle:
            with pytest.raises(TraceFormatError, match=r"binary.*'rb' mode"):
                ColfReader(handle)

    def test_closed_writer_rejects_writes(self):
        writer = ColfWriter(io.BytesIO())
        writer.close()
        with pytest.raises(ValueError, match="closed ColfWriter"):
            writer.write(ev.write(1, "x"))

    def test_abandoned_writer_file_is_rejected(self, tmp_path):
        path = tmp_path / "abandoned.colf"
        writer = ColfWriter(path)
        writer.write_batch(small_events())
        writer._handle.flush()
        writer._handle.close()  # never close()d: no footer, no trailer
        with pytest.raises(TraceFormatError):
            ColfReader(path)


#: A v1 container (8 events, segment_events=3) written by the original
#: writer.  Pins the on-disk layout: header, interning order, column
#: packing, footer tables, CRC and trailer, byte for byte.
GOLDEN_V1_BASE64 = (
    "rlJQVFJDMQoBAAAAAAAAAAYEAQAAAAAAAAAAAAAAAAAAAAABAAAAAgAAAAIAAwEAAAABAAAAAQ"
    "AAAAMAAAACAAAAAwAAAAUHAAAAAAAAAAABAAAAAAAAAAIAAAABAAAAAAAAAAIAAAAAAAAABAAA"
    "AAACAQAAAAEBAAAAeAEBAAAAbAMAAAAQAAAAAAAAAAMAAAAAAAAAAAAAAAIAAAAAAAAAKwAAAA"
    "AAAAADAAAAAwAAAAAAAAAFAAAAAAAAAEYAAAAAAAAAAgAAAAYAAAAAAAAABwAAAAAAAABYAAAA"
    "AAAAAD4k8tCuUlBUUkMxCg=="
)


class TestGoldenLayout:
    def test_golden_v1_container_still_decodes(self):
        blob = base64.b64decode(GOLDEN_V1_BASE64)
        assert read_colf_events(blob) == canonical(small_events())

    def test_current_writer_reproduces_golden_bytes(self):
        # Byte-identical output is stronger than "still decodes": any
        # layout drift (even one that decodes compatibly) must be a
        # deliberate, version-bumped change.
        assert pack_bytes(small_events(), segment_events=3) == base64.b64decode(
            GOLDEN_V1_BASE64
        )


class TestReaderResourceLifecycle:
    """Error-path regression tests: a failing reader must never leak its
    file handle or let dangling column views mask the real error."""

    def _opened_handles(self, monkeypatch):
        import builtins

        handles = []
        real_open = builtins.open

        def tracking_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr(builtins, "open", tracking_open)
        return handles

    def test_mmap_failure_closes_file(self, tmp_path, monkeypatch):
        import mmap as mmap_module

        path = tmp_path / "t.colf"
        path.write_bytes(pack_bytes(small_events()))
        handles = self._opened_handles(monkeypatch)

        def failing_mmap(*args, **kwargs):
            raise OSError("mmap unsupported on this filesystem")

        monkeypatch.setattr(mmap_module, "mmap", failing_mmap)
        with pytest.raises(OSError, match="mmap unsupported"):
            ColfReader(path)
        assert len(handles) == 1 and handles[0].closed

    def test_corrupt_file_closes_handle_and_raises_cleanly(self, tmp_path, monkeypatch):
        blob = bytearray(pack_bytes(small_events()))
        blob[-9] ^= 0xFF  # flip a footer-CRC byte
        path = tmp_path / "corrupt.colf"
        path.write_bytes(bytes(blob))
        handles = self._opened_handles(monkeypatch)
        with pytest.raises(TraceFormatError, match="checksum mismatch"):
            ColfReader(path)
        assert len(handles) == 1 and handles[0].closed

    def test_close_tolerates_exported_column_views(self, tmp_path, monkeypatch):
        path = tmp_path / "t.colf"
        path.write_bytes(pack_bytes(small_events(), segment_events=3))
        handles = self._opened_handles(monkeypatch)
        reader = ColfReader(path)
        view = reader.segments[0].kind_codes  # pins the mapped buffer
        reader.close()  # must not raise BufferError...
        assert handles[-1].closed  # ...and must still close the file
        reader.close()  # idempotent
        assert view[0] is not None  # the exported view stays readable

    def test_truncated_footer_then_close_is_clean(self, tmp_path):
        # A mid-footer TraceFormatError keeps cursor sub-views in the
        # traceback; the reader copies the footer to bytes so close()
        # (run by __init__'s error path) still releases the mmap.
        blob = bytearray(pack_bytes(small_events()))
        struct.pack_into("<I", blob, len(blob) - 16, 2**31)  # absurd footer offset
        path = tmp_path / "trunc.colf"
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError):
            ColfReader(path)
