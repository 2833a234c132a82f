"""Differential: the fused flat-array TreeClock ≡ the paper's two-pass algorithm.

:class:`~repro.clocks.TreeClock` fuses ``getUpdatedNodes``,
``detachNodes`` and ``attachNodes`` into one pruned walk over int
columns.  This file holds it to :class:`RefTreeClock`, a plain
transcription of the paper's two passes over dict nodes.  HB/SHB/MAZ
traces run with :class:`PairedClock`, which applies every clock
operation to both; after each one the tree shapes (tid, clk, aclk and
child order) and the ``(processed, updated)`` work counts must be equal.
The runs cover a thread universe that grows mid-run and a restore from a
mid-run snapshot (``seed_vector_time``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import HBAnalysis, MAZAnalysis, SHBAnalysis
from repro.clocks import ClockContext, TreeClock, WorkCounter
from repro.gen.scenarios import single_lock_trace, star_topology_trace
from repro.trace import Trace
from util_traces import trace_strategy

ANALYSES = [HBAnalysis, SHBAnalysis, MAZAnalysis]


class RefNode:
    __slots__ = ("tid", "clk", "aclk", "parent", "children")

    def __init__(self, tid: int, clk: int = 0, aclk: Optional[int] = None) -> None:
        self.tid, self.clk, self.aclk = tid, clk, aclk
        self.parent: Optional[RefNode] = None
        self.children: List[RefNode] = []  # most recently attached first


class RefTreeClock:
    """The paper's ``Join`` / ``MonotoneCopy``; operations return ``(processed, updated)``."""

    def __init__(self, owner: Optional[int] = None) -> None:
        self.nodes: Dict[int, RefNode] = {}
        self.root: Optional[RefNode] = None
        if owner is not None:
            self.root = self.nodes[owner] = RefNode(owner)

    def get(self, tid: int) -> int:
        node = self.nodes.get(tid)
        return 0 if node is None else node.clk

    @staticmethod
    def push_child(child: RefNode, parent: RefNode) -> None:
        child.parent = parent
        parent.children.insert(0, child)

    def updated_nodes(self, u: RefNode, old_root: Optional[int], out: List[RefNode]) -> int:
        """``getUpdatedNodes``: ``out`` gets the nodes in post-order; returns the examinations."""
        examined = 0
        for v in u.children:
            examined += 1
            if self.get(v.tid) < v.clk:
                examined += self.updated_nodes(v, old_root, out)
                continue
            if v.tid == old_root:
                out.append(v)
            if v.aclk <= self.get(u.tid):
                break
        out.append(u)
        return examined

    def detach_attach(self, out: List[RefNode]) -> int:
        """``detachNodes``, then ``attachNodes`` popping parents first; returns entries changed."""
        for v in out:
            w = self.nodes.setdefault(v.tid, RefNode(v.tid))
            if w.parent is not None:
                w.parent.children.remove(w)
                w.parent = None
        updated = 0
        while out:
            v = out.pop()
            w = self.nodes[v.tid]
            updated += w.clk != v.clk
            w.clk = v.clk
            if v.parent is not None:
                w.aclk = v.aclk
                self.push_child(w, self.nodes[v.parent.tid])
        return updated

    def join(self, other: "RefTreeClock") -> Tuple[int, int]:
        if other.root is None:
            return 0, 0
        if self.root is None:
            return self.deep_copy(other)
        if other.root.clk <= self.get(other.root.tid):
            return 1, 0
        out: List[RefNode] = []
        processed = 1 + self.updated_nodes(other.root, None, out)
        updated = self.detach_attach(out)
        z = self.nodes[other.root.tid]
        if z is not self.root:
            z.aclk = self.root.clk
            self.push_child(z, self.root)
        return processed, updated

    def monotone_copy(self, other: "RefTreeClock") -> Tuple[int, int]:
        if other.root is None:
            return 0, 0
        old = self.root
        out: List[RefNode] = []
        processed = 1 + self.updated_nodes(other.root, None if old is None else old.tid, out)
        updated = self.detach_attach(out)
        z = self.root = self.nodes[other.root.tid]
        z.aclk = None
        if old is not None and old is not z and old.parent is None:
            old.aclk = z.clk
            self.push_child(old, z)
        return processed, updated

    def copy_check_monotone(self, other: "RefTreeClock") -> Tuple[int, int]:
        if self.root is None or self.root.clk <= other.get(self.root.tid):
            return self.monotone_copy(other)
        return self.deep_copy(other)

    def deep_copy(self, other: "RefTreeClock") -> Tuple[int, int]:
        old = {tid: node.clk for tid, node in self.nodes.items()}
        self.nodes = {tid: RefNode(tid, n.clk, n.aclk) for tid, n in other.nodes.items()}
        for tid, original in other.nodes.items():
            copy = self.nodes[tid]
            copy.children = [self.nodes[child.tid] for child in original.children]
            copy.parent = None if original.parent is None else self.nodes[original.parent.tid]
        self.root = None if other.root is None else self.nodes[other.root.tid]
        changed = sum(old.get(tid, 0) != self.get(tid) for tid in set(old) | set(self.nodes))
        return len(self.nodes), changed

    def seed_vector_time(self, vector_time: Dict[int, int], anchor: Optional[int]) -> None:
        self.nodes, self.root = {}, None
        if anchor is None:
            return
        root = self.root = self.nodes[anchor] = RefNode(anchor, vector_time.get(anchor, 0))
        for tid, clk in vector_time.items():
            if tid != anchor and clk:
                self.nodes[tid] = RefNode(tid, clk, root.clk)
                self.push_child(self.nodes[tid], root)


def shape(root) -> List[Tuple[int, int, Optional[int], List[int]]]:
    """``(tid, clk, aclk, child tids)`` of every node, in pre-order."""
    rows = []
    stack = [] if root is None else [root]
    while stack:
        node = stack.pop()
        children = node.children if isinstance(node, RefNode) else list(node.children())
        rows.append((node.tid, node.clk, node.aclk, [child.tid for child in children]))
        stack.extend(reversed(children))
    return rows


class PairedClock:
    """A clock class for the analyses that runs TreeClock and RefTreeClock in lockstep."""

    SHORT_NAME = "TC"

    def __init__(self, context: ClockContext, owner: Optional[int] = None) -> None:
        self.context = context
        self.owner = owner
        self.fast = TreeClock(context, owner=owner)
        self.ref = RefTreeClock(owner)

    @property
    def root(self):
        return self.fast.root

    def get(self, tid: int) -> int:
        return self.fast.get(tid)

    def leq(self, other: "PairedClock") -> bool:
        return self.fast.leq(other.fast)

    def as_dict(self) -> Dict[int, int]:
        return self.fast.as_dict()

    def increment(self, tid: int, amount: int = 1) -> None:
        self.fast.increment(tid, amount)
        self.ref.root.clk += amount

    def seed_vector_time(self, vector_time: Dict[int, int], anchor: Optional[int] = None) -> None:
        self.fast.seed_vector_time(vector_time, anchor)
        self.ref.seed_vector_time(vector_time, self.owner if anchor is None else anchor)
        self._check("seed_vector_time", None)

    def _apply(self, name: str, other: "PairedClock") -> None:
        counter = self.context.counter
        before = (counter.entries_processed, counter.entries_updated)
        getattr(self.fast, name)(other.fast)
        counts = (counter.entries_processed - before[0], counter.entries_updated - before[1])
        self._check(name, counts, getattr(self.ref, name)(other.ref))

    def _check(self, name: str, counts, expected=None) -> None:
        assert counts == expected, f"{name}: (processed, updated) {counts} != {expected}"
        assert shape(self.fast.root) == shape(self.ref.root), f"{name}: tree shapes differ"
        assert self.fast.validate_structure() == [], name

    def join(self, other: "PairedClock") -> None:
        self._apply("join", other)

    def monotone_copy(self, other: "PairedClock") -> None:
        self._apply("monotone_copy", other)

    def copy_check_monotone(self, other: "PairedClock") -> None:
        self._apply("copy_check_monotone", other)


def walk(analysis_class, trace: Trace, upfront: bool, split: Optional[int] = None):
    """Feed ``trace`` through a paired-clock analysis; restore from a snapshot at ``split``."""
    analysis = analysis_class(PairedClock, count_work=True, detect=True)
    analysis.begin(threads=trace.threads if upfront else [], trace_name=trace.name)
    events = list(trace)
    if split is not None:
        analysis.feed_batch(events[:split])
        state = analysis.snapshot_state()
        analysis = analysis_class(PairedClock, count_work=True, detect=True)
        analysis.restore_state(state)
        events = events[split:]
    analysis.feed_batch(events)
    return analysis.finish()


@pytest.mark.parametrize("analysis_class", ANALYSES)
@settings(max_examples=30, deadline=None)
@given(trace=trace_strategy(max_threads=6, max_events=120, include_fork_join=True), upfront=st.booleans())
def test_fused_walk_matches_two_pass(analysis_class, trace: Trace, upfront: bool) -> None:
    """Every join/copy of a run: same tree, same work counts (universe grown mid-run or not)."""
    walk(analysis_class, trace, upfront)


@pytest.mark.parametrize("analysis_class", ANALYSES)
@settings(max_examples=20, deadline=None)
@given(trace=trace_strategy(max_threads=5, max_events=100, include_fork_join=True), cut=st.floats(0, 1))
def test_restored_run_matches_two_pass(analysis_class, trace: Trace, cut: float) -> None:
    """Seeded flat trees and every operation after the restore agree as well."""
    walk(analysis_class, trace, upfront=False, split=int(cut * len(trace)))


@pytest.mark.parametrize("analysis_class", ANALYSES)
@pytest.mark.parametrize("make", [single_lock_trace, star_topology_trace])
def test_forty_thread_scenarios_match_two_pass(analysis_class, make) -> None:
    """The benchmark's sync-scaling shapes: wide and deep 40-thread trees."""
    walk(analysis_class, make(40, 600, seed=3), upfront=True)


def test_copy_into_empty_clock_with_a_zero_entry_matches_two_pass() -> None:
    """A non-root entry at clk 0 is not progressed, so the copy leaves it out."""
    context = ClockContext(threads=[1, 2], counter=WorkCounter())
    t1, t2 = PairedClock(context, owner=1), PairedClock(context, owner=2)
    aux, empty = PairedClock(context), PairedClock(context)
    aux.monotone_copy(t1)  # aux is rooted at t1 with clk 0
    t2.increment(2)
    aux.monotone_copy(t2)  # the old root t1 (clk 0) is re-attached under t2
    assert [node.clk for node in aux.fast.nodes()] == [1, 0]
    empty.monotone_copy(aux)
    assert empty.fast.node_count == 1
