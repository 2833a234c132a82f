"""Unit tests for epochs and the work counter / clock context plumbing."""

import pytest

from repro.api import clock_class
from repro.clocks import (
    CLOCK_CLASSES,
    ClockContext,
    Epoch,
    TreeClock,
    VectorClock,
    WorkCounter,
    clock_name,
    epoch_of,
    is_empty,
)
from repro.clocks.base import vt_equal, vt_get, vt_join, vt_leq
from repro.clocks.epoch import EMPTY_EPOCH


class TestEpoch:
    def test_happens_before_true_when_clock_knows_enough(self, context):
        clock = VectorClock(context)
        clock.increment(1, 5)
        assert Epoch(tid=1, clk=5).happens_before(clock)
        assert Epoch(tid=1, clk=3).happens_before(clock)

    def test_happens_before_false_when_clock_is_behind(self, context):
        clock = VectorClock(context)
        clock.increment(1, 2)
        assert not Epoch(tid=1, clk=3).happens_before(clock)

    def test_happens_before_works_with_tree_clocks(self, context):
        clock = TreeClock(context, owner=1)
        clock.increment(1, 4)
        assert Epoch(tid=1, clk=4).happens_before(clock)
        assert not Epoch(tid=1, clk=5).happens_before(clock)

    def test_epoch_of(self, context):
        clock = VectorClock(context)
        clock.increment(2, 7)
        assert epoch_of(clock, 2) == Epoch(tid=2, clk=7)

    def test_is_empty(self):
        assert is_empty(None)
        assert is_empty(EMPTY_EPOCH)
        assert is_empty(Epoch(tid=3, clk=0))
        assert not is_empty(Epoch(tid=3, clk=1))

    def test_str_format(self):
        assert str(Epoch(tid=2, clk=9)) == "9@t2"

    def test_empty_epoch_happens_before_everything(self, context):
        assert EMPTY_EPOCH.happens_before(VectorClock(context))


class TestWorkCounter:
    def test_record_increment(self):
        counter = WorkCounter()
        counter.record_increment()
        assert counter.increments == 1
        assert counter.entries_processed == 1
        assert counter.entries_updated == 1

    def test_record_join_and_copy(self):
        counter = WorkCounter()
        counter.record_join(processed=10, updated=3)
        counter.record_copy(processed=4, updated=4)
        assert counter.joins == 1 and counter.copies == 1
        assert counter.entries_processed == 14
        assert counter.entries_updated == 7

    def test_reset(self):
        counter = WorkCounter()
        counter.record_join(5, 2)
        counter.reset()
        assert counter.entries_processed == 0
        assert counter.joins == 0


class TestClockContext:
    def test_threads_are_deduplicated_in_order(self):
        context = ClockContext(threads=[3, 1, 3, 2, 1])
        assert list(context.threads) == [3, 1, 2]
        assert context.num_threads == 3

    def test_index_of_mapping(self):
        context = ClockContext(threads=[5, 7])
        assert context.index_of == {5: 0, 7: 1}

    def test_require_thread_raises_for_unknown(self):
        context = ClockContext(threads=[1])
        with pytest.raises(KeyError):
            context.require_thread(9)


class TestVectorTimeHelpers:
    def test_vt_get_defaults_to_zero(self):
        assert vt_get({1: 4}, 2) == 0

    def test_vt_leq(self):
        assert vt_leq({1: 1}, {1: 2, 2: 1})
        assert not vt_leq({1: 3}, {1: 2})
        assert vt_leq({}, {1: 1})

    def test_vt_join(self):
        assert vt_join({1: 3, 2: 1}, {2: 4}) == {1: 3, 2: 4}

    def test_vt_equal_treats_missing_as_zero(self):
        assert vt_equal({1: 0}, {})
        assert not vt_equal({1: 1}, {})


class TestRegistry:
    def test_clock_classes_registry(self):
        assert CLOCK_CLASSES["VC"] is VectorClock
        assert CLOCK_CLASSES["TC"] is TreeClock

    def test_clock_class_is_case_insensitive(self):
        assert clock_class("vc") is VectorClock
        assert clock_class("Tc") is TreeClock

    def test_clock_class_rejects_unknown(self):
        with pytest.raises(ValueError):
            clock_class("mystery")

    def test_clock_name(self):
        assert clock_name(VectorClock) == "VC"
        assert clock_name(TreeClock) == "TC"
        assert clock_name(dict) == "dict"
