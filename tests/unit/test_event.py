"""Unit tests for the event model (:mod:`repro.trace.event`)."""

import os
import pickle
import subprocess
import sys
from itertools import repeat

import pytest

from repro.trace import event as ev
from repro.trace.event import (
    ACCESS_KINDS,
    LOCK_KINDS,
    SYNC_KINDS,
    Event,
    OpKind,
)


class TestConstructors:
    def test_read_constructor(self):
        event = ev.read(1, "x")
        assert event.tid == 1
        assert event.kind is OpKind.READ
        assert event.target == "x"

    def test_write_constructor(self):
        event = ev.write(2, "y")
        assert event.kind is OpKind.WRITE
        assert event.variable == "y"

    def test_acquire_constructor(self):
        event = ev.acquire(3, "lock")
        assert event.kind is OpKind.ACQUIRE
        assert event.lock == "lock"

    def test_release_constructor(self):
        event = ev.release(3, "lock")
        assert event.kind is OpKind.RELEASE
        assert event.lock == "lock"

    def test_fork_constructor(self):
        event = ev.fork(1, 7)
        assert event.kind is OpKind.FORK
        assert event.other_thread == 7

    def test_join_constructor(self):
        event = ev.join(1, 7)
        assert event.kind is OpKind.JOIN
        assert event.other_thread == 7

    def test_begin_end_constructors(self):
        assert ev.begin(4).kind is OpKind.BEGIN
        assert ev.end(4).kind is OpKind.END
        assert ev.begin(4).target is None

    def test_default_eid_is_minus_one(self):
        assert ev.read(1, "x").eid == -1

    def test_explicit_eid(self):
        assert ev.read(1, "x", eid=42).eid == 42


class TestKindHashing:
    def test_kind_hash_is_the_identity_hash(self):
        for kind in OpKind:
            assert hash(kind) == object.__hash__(kind)

    def test_kinds_stay_dict_keys_after_a_pickle_round_trip(self):
        table = {kind: kind.value for kind in OpKind}
        for kind in OpKind:
            restored = pickle.loads(pickle.dumps(kind))
            assert restored is kind
            assert table[restored] == kind.value
        event = pickle.loads(pickle.dumps(ev.write(1, "x", eid=0)))
        assert {OpKind.WRITE: "hit"}[event.kind] == "hit"

    def test_kind_keyed_tables_survive_a_process_boundary(self):
        # Serve workers get events and kind-keyed state pickled from
        # another process, where every member has another identity hash.
        payload = pickle.dumps(({kind: kind.value for kind in OpKind}, list(OpKind)))
        script = (
            "import pickle, sys\n"
            "table, kinds = pickle.loads(sys.stdin.buffer.read())\n"
            "assert all(table[kind] == kind.value for kind in kinds)\n"
            "from repro.trace.event import OpKind\n"
            "assert all(table[kind] == kind.value for kind in OpKind)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", script], input=payload, env=env, check=True)


class TestBulkConstruction:
    def test_tuple_new_builds_real_events(self):
        rows = [(0, 1, OpKind.WRITE, "x"), (1, 2, OpKind.FORK, 3)]
        events = list(map(tuple.__new__, repeat(Event), rows))
        assert events == [Event(*row) for row in rows]
        assert all(type(event) is Event for event in events)
        assert events[1].other_thread == 3


class TestClassification:
    def test_read_flags(self):
        event = ev.read(1, "x")
        assert event.is_read and event.is_access
        assert not event.is_write and not event.is_sync

    def test_write_flags(self):
        event = ev.write(1, "x")
        assert event.is_write and event.is_access
        assert not event.is_read

    def test_acquire_flags(self):
        event = ev.acquire(1, "l")
        assert event.is_acquire and event.is_lock_op and event.is_sync
        assert not event.is_access

    def test_release_flags(self):
        event = ev.release(1, "l")
        assert event.is_release and event.is_lock_op and event.is_sync

    def test_fork_join_are_sync(self):
        assert ev.fork(1, 2).is_sync
        assert ev.join(1, 2).is_sync

    def test_kind_sets_are_disjoint_where_expected(self):
        assert ACCESS_KINDS.isdisjoint(LOCK_KINDS)
        assert ACCESS_KINDS.isdisjoint(SYNC_KINDS)
        assert LOCK_KINDS <= SYNC_KINDS


class TestAccessors:
    def test_variable_accessor_rejects_non_access(self):
        with pytest.raises(ValueError):
            _ = ev.acquire(1, "l").variable

    def test_lock_accessor_rejects_non_lock(self):
        with pytest.raises(ValueError):
            _ = ev.read(1, "x").lock

    def test_other_thread_rejects_non_fork_join(self):
        with pytest.raises(ValueError):
            _ = ev.read(1, "x").other_thread

    def test_events_are_hashable_and_frozen(self):
        event = ev.read(1, "x", eid=3)
        assert hash(event) == hash(Event(eid=3, tid=1, kind=OpKind.READ, target="x"))
        with pytest.raises(AttributeError):
            event.tid = 5  # type: ignore[misc]


class TestConflicts:
    def test_write_write_same_variable_conflicts(self):
        assert ev.write(1, "x").conflicts_with(ev.write(2, "x"))

    def test_read_write_conflicts(self):
        assert ev.read(1, "x").conflicts_with(ev.write(2, "x"))
        assert ev.write(1, "x").conflicts_with(ev.read(2, "x"))

    def test_read_read_does_not_conflict(self):
        assert not ev.read(1, "x").conflicts_with(ev.read(2, "x"))

    def test_same_thread_does_not_conflict(self):
        assert not ev.write(1, "x").conflicts_with(ev.write(1, "x"))

    def test_different_variables_do_not_conflict(self):
        assert not ev.write(1, "x").conflicts_with(ev.write(2, "y"))

    def test_lock_events_do_not_conflict(self):
        assert not ev.acquire(1, "l").conflicts_with(ev.acquire(2, "l"))


class TestRendering:
    def test_pretty_access(self):
        assert ev.write(1, "x").pretty() == "t1: w(x)"

    def test_pretty_lock(self):
        assert ev.acquire(2, "l").pretty() == "t2: acq(l)"

    def test_pretty_fork(self):
        assert ev.fork(1, 3).pretty() == "t1: fork(t3)"

    def test_pretty_begin(self):
        assert ev.begin(5).pretty() == "t5: begin"

    def test_str_matches_pretty(self):
        event = ev.read(4, "z")
        assert str(event) == event.pretty()
