"""Regression tests: degenerate deep tree clocks must not blow the stack.

Adversarial traces (long chains of pairwise joins) produce tree clocks
whose depth is proportional to the trace length.  Every traversal in the
clock — rendering, depth, structural validation, deep copies, monotone
copies and joins — must therefore be iterative: a recursive
implementation dies with ``RecursionError`` somewhere around depth 1000
(CPython's default recursion limit).  These tests build chains far
deeper than the recursion limit — and additionally *lower* the limit, so
a reintroduced recursion fails loudly even if the chain were shortened.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from repro.clocks import ClockContext, TreeClock, VectorClock
from repro.clocks.render import render_clock, render_tree_clock

DEPTH = 3000


@contextmanager
def recursion_limit(limit: int):
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def chain_clock(context: ClockContext, depth: int = DEPTH) -> TreeClock:
    """A tree clock whose tree is a single chain of ``depth`` nodes."""
    clock = TreeClock(context, owner=0)
    clock.increment(0)
    index_of = context.index_of
    previous = index_of[0]
    for tid in range(1, depth):
        node = index_of[tid]
        clock._clk[node] = 1
        clock._aclk[node] = 1
        clock._parent[node] = previous
        clock._head[previous] = node
        previous = node
    return clock


def deep_context(depth: int = DEPTH) -> ClockContext:
    return ClockContext(threads=list(range(depth + 1)))


def test_render_deep_chain_is_iterative():
    context = deep_context()
    clock = chain_clock(context)
    with recursion_limit(100):
        text = render_tree_clock(clock)
    lines = text.splitlines()
    assert len(lines) == DEPTH
    assert lines[0] == "(t0, clk=1, aclk=⊥)"
    assert lines[1] == "`-- (t1, clk=1, aclk=1)"
    # Each level indents by four columns under its (only) parent.
    assert lines[-1].endswith(f"(t{DEPTH - 1}, clk=1, aclk=1)")
    assert render_clock(clock) == text


def test_depth_validate_repr_and_snapshot_on_deep_chain():
    context = deep_context()
    clock = chain_clock(context)
    with recursion_limit(100):
        assert clock.depth() == DEPTH
        assert clock.validate_structure() == []
        assert "entries=3000" in repr(clock)
        snapshot = clock.as_dict()
    assert len(snapshot) == DEPTH
    assert all(value == 1 for value in snapshot.values())


def test_deep_copy_and_monotone_copy_of_deep_chain_are_iterative():
    context = deep_context()
    clock = chain_clock(context)
    copy = TreeClock(context, owner=None)
    with recursion_limit(100):
        copy.copy_from(clock)
        assert copy.as_dict() == clock.as_dict()
        assert copy.validate_structure() == []
        # A second deep copy overwrites a non-empty clock.
        copy.copy_from(clock)
        assert copy.as_dict() == clock.as_dict()
        monotone = TreeClock(context, owner=None)
        monotone.monotone_copy(clock)  # ∅ ⊑ chain: full pruned traversal
        assert monotone.as_dict() == clock.as_dict()
        assert monotone.validate_structure() == []


def test_join_of_deep_chain_matches_vector_clock():
    tc_context = deep_context()
    vc_context = deep_context()
    chain = chain_clock(tc_context)
    joiner = TreeClock(tc_context, owner=DEPTH)
    joiner.increment(DEPTH)
    vc_chain = VectorClock(vc_context, owner=None)
    for tid in range(DEPTH):
        vc_chain.increment(tid)
    vc_joiner = VectorClock(vc_context, owner=DEPTH)
    vc_joiner.increment(DEPTH)
    with recursion_limit(100):
        joiner.join(chain)
        vc_joiner.join(vc_chain)
        assert joiner.as_dict() == vc_joiner.as_dict()
        assert joiner.validate_structure() == []
        assert joiner.depth() == DEPTH + 1
