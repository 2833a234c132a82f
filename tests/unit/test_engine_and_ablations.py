"""Unit tests for the analysis engine plumbing and the ablation variants."""

import pytest

from repro.analysis import HBAnalysis, SHBAnalysis
from repro.analysis.ablations import HBDeepCopyAnalysis, SHBDeepCopyAnalysis
from repro.analysis.engine import PartialOrderAnalysis
from repro.api import order_class
from repro.clocks import TreeClock, VectorClock
from repro.trace import Trace, TraceBuilder
from repro.trace import event as ev


class TestEngine:
    def test_base_class_requires_handle_event(self):
        trace = TraceBuilder().read(1, "x").build()
        with pytest.raises(NotImplementedError):
            PartialOrderAnalysis(TreeClock).run(trace)

    def test_empty_trace_produces_empty_result(self):
        result = HBAnalysis(TreeClock, capture_timestamps=True).run(Trace([]))
        assert result.num_events == 0
        assert result.timestamps == []

    def test_begin_and_end_events_only_advance_local_time(self):
        trace = Trace([ev.begin(1), ev.read(1, "x"), ev.end(1)])
        result = HBAnalysis(TreeClock, capture_timestamps=True).run(trace)
        assert result.timestamps == [{1: 1}, {1: 2}, {1: 3}]

    def test_thread_clocks_are_created_lazily_and_cached(self):
        analysis = HBAnalysis(TreeClock)
        analysis.run(TraceBuilder().read(1, "x").read(2, "y").build())
        assert set(analysis.thread_clocks) == {1, 2}
        assert analysis.clock_of_thread(1) is analysis.thread_clocks[1]

    def test_lock_clocks_are_created_lazily(self):
        analysis = HBAnalysis(TreeClock)
        analysis.run(TraceBuilder().sync(1, "a").sync(1, "b").build())
        assert set(analysis.lock_clocks) == {"a", "b"}

    def test_rerun_resets_state(self):
        analysis = HBAnalysis(TreeClock)
        analysis.run(TraceBuilder().sync(1, "a").build())
        analysis.run(TraceBuilder().sync(2, "b").build())
        assert set(analysis.thread_clocks) == {2}
        assert set(analysis.lock_clocks) == {"b"}

    def test_work_counter_absent_unless_requested(self):
        result = HBAnalysis(TreeClock).run(TraceBuilder().read(1, "x").build())
        assert result.work is None
        counted = HBAnalysis(TreeClock, count_work=True).run(TraceBuilder().read(1, "x").build())
        assert counted.work is not None and counted.work.increments == 1

    def test_order_class_by_name(self):
        assert order_class("hb") is HBAnalysis
        with pytest.raises(ValueError):
            order_class("CP")


class TestAblationVariants:
    @pytest.fixture
    def trace(self):
        builder = TraceBuilder()
        for turn in range(20):
            tid = (turn % 3) + 1
            builder.write(tid, f"x{turn % 4}")
            builder.sync(tid, f"l{turn % 2}")
        return builder.build()

    def test_hb_deep_copy_variant_matches_baseline(self, trace):
        baseline = HBAnalysis(TreeClock, capture_timestamps=True).run(trace)
        ablated = HBDeepCopyAnalysis(TreeClock, capture_timestamps=True).run(trace)
        assert baseline.timestamps == ablated.timestamps
        assert ablated.partial_order == "HB"

    def test_shb_deep_copy_variant_matches_baseline(self, trace):
        baseline = SHBAnalysis(TreeClock, capture_timestamps=True).run(trace)
        ablated = SHBDeepCopyAnalysis(TreeClock, capture_timestamps=True).run(trace)
        assert baseline.timestamps == ablated.timestamps

    def test_deep_copy_variant_does_not_do_less_work(self, trace):
        baseline = HBAnalysis(TreeClock, count_work=True).run(trace)
        ablated = HBDeepCopyAnalysis(TreeClock, count_work=True).run(trace)
        assert ablated.work.entries_processed >= baseline.work.entries_processed

    def test_ablation_variants_support_detection(self, trace):
        baseline = SHBAnalysis(TreeClock, detect=True).run(trace)
        ablated = SHBDeepCopyAnalysis(TreeClock, detect=True).run(trace)
        assert baseline.detection.race_count == ablated.detection.race_count

    def test_ablation_variants_work_with_vector_clocks(self, trace):
        baseline = HBAnalysis(VectorClock, capture_timestamps=True).run(trace)
        ablated = HBDeepCopyAnalysis(VectorClock, capture_timestamps=True).run(trace)
        assert baseline.timestamps == ablated.timestamps
