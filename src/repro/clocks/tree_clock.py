"""The tree clock data structure (Algorithm 2 of the paper).

A tree clock stores the same information as a vector clock — the last
known local time of every thread — but arranges the entries in a rooted
tree whose edges record *how* that knowledge was obtained: a node ``u``
is a child of ``v`` if the time of ``u.tid`` was learned transitively
through thread ``v.tid``, and ``u.aclk`` (the *attachment clock*) is the
local time ``v.tid`` had when it learned it.

This structure enables two pruning rules during ``join`` and
``monotone_copy`` (Section 3.1):

* **direct monotonicity** — if the receiving clock already knows thread
  ``u.tid`` at time ``>= u.clk``, it also knows every descendant of ``u``
  at least as well, so the whole subtree can be skipped, and
* **indirect monotonicity** — children are kept in descending ``aclk``
  order, so as soon as a non-progressed child with ``aclk <= Get(parent)``
  is found, all remaining (older) siblings can be skipped as well.

Consequently both operations run in time proportional to the number of
entries that actually change (plus a constant per operation), which is
the basis of the vt-optimality result (Theorem 1).

Layout.  The tree is stored as six parallel int lists (structure of
arrays, the layout of the authors' Java artifact), indexed by the dense
thread index :class:`ClockContext` assigns:

* ``_clk`` and ``_aclk`` — the local time and the attachment clock
  (``-1`` stands for the root's ⊥);
* ``_parent``, ``_head`` (first child), ``_nxt`` and ``_prv`` (sibling
  links) — ``-1`` is the null link.

The root is stored as an index (``-1`` for an empty clock).  A thread is
in the tree iff it is the root or has a parent; every other entry reads
``clk = 0`` with all links null.  The columns grow lazily with the thread
universe, like the vector clock's array.  No node objects exist:
:class:`TreeClockNode` is a read-only view for introspection only.

Join and copy.  The paper's two passes (``getUpdatedNodes``, then
``detachNodes`` + ``attachNodes``) are fused into one pruned pre-order
walk of ``other``'s tree, which climbs back up through ``other``'s
``_parent`` column and so needs no stack.  Three rules keep the result
identical to the two-pass algorithm — the same tree and the same work
counts (``tests/differential/test_tree_clock_shape.py`` holds it to a
reference two-pass implementation):

1. a node's ``clk`` is written at its post-order finish, so the
   indirect-monotonicity test ``aclk <= Get(parent)`` still reads the
   parent's *old* value, as the gathering pass does;
2. each re-linked child goes right *after* the last child re-linked
   under the same parent in this operation (the child the walk last
   climbed back from, or a repositioned old root), which is the order
   front-pushing the gathered nodes in reverse post-order gives: the
   re-linked children lead the list in ``other``'s descending-``aclk``
   order;
3. a child that already sits in that place is neither unlinked nor
   re-linked.

A deep copy is six slice copies.  Every traversal is iterative, so
degenerate deep trees cannot overflow the Python call stack.

Cost.  The columns are dense, so a clock that holds any entry takes six
lists as long as the thread universe (``k``), allocated when it is first
written.  The walk is cheap because of that, and it pays off when trees
are dense relative to ``k``, as they become once a trace has run long
enough for knowledge to spread.  On a short trace over many threads,
where most auxiliary clocks are written once and hold a handful of
entries, that allocation dominates instead (the ``clocks`` suite's
pairwise and star scenarios at a few hundred threads).
"""

from __future__ import annotations

from functools import lru_cache
from operator import ne
from typing import Iterator, List, Optional, Set, Tuple

from .base import ClockContext, VectorTime


@lru_cache(maxsize=8)
def _blank_columns(size: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``size`` zeros and ``size`` null links, for :meth:`TreeClock._grow`.

    A clock's columns mostly grow from empty to the whole universe, so
    the sizes repeat, and extending a list by an existing sequence is
    several times cheaper than building ``[-1] * size`` for each of six
    columns.
    """
    return (0,) * size, (-1,) * size


def _link(column: str, doc: str) -> property:
    def read(self: "TreeClockNode") -> Optional["TreeClockNode"]:
        index = getattr(self.clock, column)[self.index]
        return None if index < 0 else TreeClockNode(self.clock, index)

    return property(read, doc=doc)


class TreeClockNode:
    """Read-only view of one node of a tree clock.

    Attributes mirror the paper's ``(tid, clk, aclk)`` triple; ``aclk`` is
    ``None`` for the root.  The child list runs from ``first_child``
    (the most recently attached child, with the largest attachment
    clock) along ``next_sibling``.  A view reads the clock's columns
    live; two views are equal when they name the same entry of the same
    clock.
    """

    __slots__ = ("clock", "index")

    def __init__(self, clock: "TreeClock", index: int) -> None:
        self.clock = clock
        self.index = index

    @property
    def tid(self) -> int:
        return self.clock._threads[self.index]

    @property
    def clk(self) -> int:
        return self.clock._clk[self.index]

    @property
    def aclk(self) -> Optional[int]:
        aclk = self.clock._aclk[self.index]
        return None if aclk < 0 else aclk

    parent = _link("_parent", "The parent node (``None`` for the root).")
    first_child = _link("_head", "The most recently attached child.")
    next_sibling = _link("_nxt", "The next (older) sibling.")
    prev_sibling = _link("_prv", "The previous (newer) sibling.")

    def children(self) -> Iterator["TreeClockNode"]:
        """Iterate children from the most recently attached to the oldest."""
        clock = self.clock
        nxt = clock._nxt
        child = clock._head[self.index]
        while child >= 0:
            yield TreeClockNode(clock, child)
            child = nxt[child]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TreeClockNode)
            and other.clock is self.clock
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((id(self.clock), self.index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        aclk = "⊥" if self.aclk is None else self.aclk
        return f"(t{self.tid}, {self.clk}, {aclk})"


class TreeClock:
    """The tree clock data structure.

    Parameters
    ----------
    context:
        Shared :class:`~repro.clocks.base.ClockContext` (thread universe
        and optional work counter).
    owner:
        When given, the clock is initialized as in the paper's ``Init(t)``
        with a root node ``(owner, 0, ⊥)``; thread clocks use this form.
        Auxiliary clocks (locks, last-write clocks) pass ``None`` and
        start empty (the all-zero vector time).
    """

    SHORT_NAME = "TC"

    __slots__ = (
        "context", "owner", "_index_of", "_threads",
        "_root", "_clk", "_aclk", "_parent", "_head", "_nxt", "_prv",
    )

    def __init__(self, context: ClockContext, owner: Optional[int] = None) -> None:
        self.context = context
        self.owner = owner
        # The context's thread map and list (grown in place), cached for
        # the per-event ``get`` / ``increment``.
        self._index_of = context.index_of
        self._threads = context.threads
        self._root = -1
        self._clk: List[int] = []
        self._aclk: List[int] = []
        self._parent: List[int] = []
        self._head: List[int] = []
        self._nxt: List[int] = []
        self._prv: List[int] = []
        if owner is not None:
            self._root = context.add_thread(owner)
            self._grow()

    def _columns(self) -> Tuple[List[int], ...]:
        """``clk``, then the five columns whose null value is ``-1``."""
        return (self._clk, self._aclk, self._parent, self._head, self._nxt, self._prv)

    def _grow(self) -> None:
        """Extend the columns to the current size of the thread universe."""
        missing = self.context.num_threads - len(self._clk)
        if missing > 0:
            zeros, nulls = _blank_columns(missing)
            self._clk += zeros
            for column in self._columns()[1:]:
                column += nulls

    # -- basic accessors ----------------------------------------------------------

    def get(self, tid: int) -> int:
        """The recorded local time of thread ``tid`` (0 if unknown)."""
        try:
            return self._clk[self._index_of[tid]]
        except (KeyError, IndexError):
            # An unknown thread, or one registered after the columns last
            # grew: either way this clock has not heard of it.
            return 0

    def increment(self, tid: int, amount: int = 1) -> None:
        """Advance the root thread's clock (``Increment`` in the paper)."""
        root = self._root
        if root < 0 or self._threads[root] != tid:
            raise ValueError(
                f"increment of thread t{tid} on a tree clock rooted at "
                f"{'nothing' if root < 0 else f't{self._threads[root]}'}"
            )
        self._clk[root] += amount
        counter = self.context.counter
        if counter is not None:
            counter.record_increment()

    @property
    def root(self) -> Optional[TreeClockNode]:
        """The root node (``None`` for an empty auxiliary clock)."""
        return None if self._root < 0 else TreeClockNode(self, self._root)

    @property
    def node_count(self) -> int:
        """Number of thread entries stored in the clock."""
        if self._root < 0:
            return 0
        return len(self._parent) - self._parent.count(-1) + 1

    def node_of(self, tid: int) -> Optional[TreeClockNode]:
        """The node of thread ``tid``, if present (``ThrMap`` in the paper)."""
        index = self._index_of.get(tid)
        if index is None or index >= len(self._clk):
            return None
        if index != self._root and self._parent[index] < 0:
            return None
        return TreeClockNode(self, index)

    # -- comparison ----------------------------------------------------------------

    def leq(self, other: "TreeClock") -> bool:
        """The paper's constant-time ``LessThan``.

        Checks only whether the root entry of this clock is known to
        ``other``.  This is equivalent to the full pointwise comparison
        whenever this clock is a *snapshot* clock, i.e. its contents were
        copied from a thread clock at the root's event (which is how the
        HB/SHB/MAZ algorithms use it).  For arbitrary clocks use
        :meth:`leq_full`.
        """
        root = self._root
        if root < 0:
            return True
        other_clk = other._clk
        return self._clk[root] <= (other_clk[root] if root < len(other_clk) else 0)

    def leq_full(self, other: "TreeClock") -> bool:
        """Full pointwise comparison ``self ⊑ other`` (Θ(size) time)."""
        threads = self._threads
        return all(clk <= other.get(threads[index]) for index, clk in enumerate(self._clk) if clk)

    # -- join ------------------------------------------------------------------------

    def join(self, other: "TreeClock") -> None:
        """In-place join ``self ← self ⊔ other`` (the paper's ``Join``).

        Requires ``other`` to satisfy the *snapshot property*: its root
        entry has progressed whenever any of its contents have (the O(1)
        direct-monotonicity check at the root relies on it).  All clocks
        maintained by the analyses satisfy this — thread clocks increment
        before every event's joins, and auxiliary clocks are copies of
        thread clocks.
        """
        other_root = other._root
        root = self._root
        if other_root < 0:
            # Joining the all-zero vector time is a no-op.
            processed = updated = 0
        elif root < 0:
            # An un-owned empty clock has no root to attach under; the join
            # degenerates to a full copy.  The partial-order algorithms never
            # hit this case (only thread clocks, which own a root, join).
            processed, updated = self._deep_copy_from(other)
        else:
            clk = self._clk
            if len(clk) < len(other._clk):
                self._grow()
            if other._clk[other_root] <= clk[other_root]:
                # Direct monotonicity at the root: nothing in `other` is new.
                processed, updated = 1, 0
            else:
                processed, updated = self._walk(other, -1)
                if other_root != root:
                    # Place the updated subtree under the root of this clock, at
                    # the front (it carries the freshest attachment clock).
                    self._aclk[other_root] = clk[root]
                    self._link_after(other_root, root, -1)
        counter = self.context.counter
        if counter is not None:
            counter.record_join(processed=processed, updated=updated)

    # -- copies ------------------------------------------------------------------------

    def monotone_copy(self, other: "TreeClock") -> None:
        """In-place copy ``self ← other`` assuming ``self ⊑ other``.

        Exploits the same monotonicity pruning as :meth:`join`; the only
        difference is that the (old) root of this clock is repositioned
        even when its time has not progressed, because the root of the
        result must carry the same thread as ``other``'s root.
        """
        new_root = other._root
        old_root = self._root
        if new_root < 0:
            # self ⊑ 0 implies self is the zero vector already.
            processed = updated = 0
        else:
            if len(self._clk) < len(other._clk):
                self._grow()
            processed, updated = self._walk(other, old_root)
            self._aclk[new_root] = -1
            self._root = new_root
            if old_root >= 0 and old_root != new_root and self._parent[old_root] < 0:
                # The pruned walk never examined the old root's thread (an
                # ancestor in `other` was already fully known), so it was not
                # repositioned and would be left unreachable.  Re-attach it
                # under the new root with the freshest attachment clock: at
                # local time `clk[new_root]` the new root's thread knows
                # everything this clock holds — including the old root's
                # subtree — so the aclk invariant holds, and the front of the
                # list keeps the descending order.
                self._aclk[old_root] = self._clk[new_root]
                self._link_after(old_root, new_root, -1)
        counter = self.context.counter
        if counter is not None:
            counter.record_copy(processed=processed, updated=updated)

    def copy_check_monotone(self, other: "TreeClock") -> None:
        """Copy ``other`` into this clock without assuming monotonicity.

        Performs the constant-time :meth:`leq` test first; when it holds
        the copy is a (sublinear) :meth:`monotone_copy`, otherwise it
        falls back to a linear deep copy.  Used by the SHB algorithm for
        last-write clocks, where the non-monotone case corresponds
        exactly to a write-read race (Section 5.1).
        """
        if self.leq(other):
            self.monotone_copy(other)
        else:
            self.copy_from(other)

    def copy_from(self, other: "TreeClock") -> None:
        """Unconditional deep copy of ``other`` into this clock."""
        processed, updated = self._deep_copy_from(other)
        counter = self.context.counter
        if counter is not None:
            counter.record_copy(processed=processed, updated=updated)

    def seed_vector_time(self, vector_time: VectorTime, anchor: Optional[int] = None) -> None:
        """Overwrite this clock with an absolute vector-time snapshot.

        Used by :meth:`~repro.api.Session.restore` (via the engines'
        ``restore_state``) to rebuild mid-trace clock state from a
        checkpoint, as serve's ``stream_resume`` does.  The
        result is a *flat* tree: a root ``(anchor, vector_time[anchor])``
        with every other non-zero entry as a direct child carrying
        ``aclk = root.clk``.

        ``anchor`` must be the thread whose clock snapshot this vector
        time is (the owning thread for thread clocks — the default —
        the last releasing thread for lock clocks, the last writer for
        last-write clocks).  That choice is what keeps the tree-clock
        pruning rules sound on the seeded state: any clock that knows
        ``(anchor, root.clk)`` can only have learned it from the
        anchor's state at that local time, which contains every seeded
        entry — exactly the snapshot property ``join`` relies on.  The
        flat shape is structurally valid (equal child ``aclk`` values
        satisfy the descending-order invariant) and, because all
        children share ``aclk = root.clk``, indirect monotonicity never
        fires unless the whole clock is already known, so the vector
        times computed after the seed match the uninterrupted run's.

        Seeding is state restoration, not analysis work: no work-counter
        events are recorded.
        """
        self._clear()
        if anchor is None:
            anchor = self.owner
        if anchor is None:
            if vector_time:
                raise ValueError(
                    "seeding a non-empty vector time into an un-owned tree clock "
                    "requires an anchor thread"
                )
            return
        context = self.context
        root = context.add_thread(anchor)
        children = [
            (context.add_thread(tid), clk)
            for tid, clk in vector_time.items()
            if tid != anchor and clk
        ]
        self._grow()
        self._root = root
        self._clk[root] = vector_time.get(anchor, 0)
        for index, clk in children:
            self._clk[index] = clk
            self._aclk[index] = self._clk[root]
            self._link_after(index, root, -1)

    # -- snapshots and introspection ------------------------------------------------------

    def as_dict(self) -> VectorTime:
        """Snapshot of the vector time represented by this clock."""
        threads = self._threads
        return {threads[index]: clk for index, clk in enumerate(self._clk) if clk}

    def nodes(self) -> Iterator[TreeClockNode]:
        """Iterate all nodes in pre-order from the root."""
        return (TreeClockNode(self, index) for index, _ in self._preorder())

    def depth(self) -> int:
        """Height of the tree (0 for an empty clock, 1 for a single root)."""
        return max((level for _, level in self._preorder()), default=0)

    def _preorder(self) -> Iterator[Tuple[int, int]]:
        """``(index, level)`` of every node in pre-order, the root at level 1."""
        head, nxt = self._head, self._nxt
        stack = [(self._root, 1)] if self._root >= 0 else []
        while stack:
            index, level = stack.pop()
            yield index, level
            child = head[index]
            while child >= 0:
                stack.append((child, level + 1))
                child = nxt[child]

    def validate_structure(self) -> List[str]:
        """Check internal invariants; returns a list of violation messages.

        Verified invariants: the columns have one length, parent / child
        / sibling links are consistent, each thread appears at most once,
        child lists are sorted by descending attachment clock, every
        non-root node carries an attachment clock, every entry with a
        parent is reachable from the root, and entries outside the tree
        are reset (``clk`` 0, no links).
        """
        clk, aclk, parent, head, nxt, prv = self._columns()
        size = len(clk)
        if any(len(column) != size for column in (aclk, parent, head, nxt, prv)):
            return ["columns differ in length"]
        threads = self._threads
        problems: List[str] = []
        reachable: Set[int] = set()
        root = self._root
        if root >= 0:
            if parent[root] >= 0:
                problems.append("root has a parent")
            if aclk[root] >= 0:
                problems.append("root has an attachment clock")
            if nxt[root] >= 0 or prv[root] >= 0:
                problems.append("root has siblings")
            stack = [root]
            while stack:
                node = stack.pop()
                if node in reachable:
                    problems.append(f"thread t{threads[node]} appears twice in the tree")
                    continue
                reachable.add(node)
                previous = -1
                child = head[node]
                for _ in range(size):  # a longer child list must be cyclic
                    if child < 0:
                        break
                    tid = threads[child]
                    if parent[child] != node:
                        problems.append(f"child t{tid} has wrong parent pointer")
                    if prv[child] != previous:
                        problems.append(f"child t{tid} has wrong prev_sibling pointer")
                    if aclk[child] < 0:
                        problems.append(f"non-root node t{tid} has no attachment clock")
                    elif previous >= 0 and aclk[child] > aclk[previous]:
                        problems.append(
                            f"children of t{threads[node]} are not in descending aclk order"
                        )
                    previous = child
                    stack.append(child)
                    child = nxt[child]
                if child >= 0:
                    problems.append(f"child list of t{threads[node]} is cyclic")
        for index in range(size):
            if index in reachable:
                continue
            if parent[index] >= 0:
                problems.append(f"thread map entry t{threads[index]} is not reachable from the root")
            elif clk[index] or max(aclk[index], head[index], nxt[index], prv[index]) >= 0:
                problems.append(f"entry t{threads[index]} outside the tree is not reset")
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeClock(root={self.root!r}, entries={self.node_count})"

    # -- internal helpers -----------------------------------------------------------------

    def _link_after(self, child: int, parent: int, last: int) -> None:
        """Link the unlinked ``child`` under ``parent``, after sibling ``last``.

        ``last = -1`` makes ``child`` the first child: the paper's
        ``pushChild``.
        """
        nxt = self._nxt
        self._parent[child] = parent
        self._prv[child] = last
        if last >= 0:
            following = nxt[last]
            nxt[last] = child
        else:
            following = self._head[parent]
            self._head[parent] = child
        nxt[child] = following
        if following >= 0:
            self._prv[following] = child

    def _walk(self, other: "TreeClock", old_root: int) -> Tuple[int, int]:
        """The fused ``getUpdatedNodes`` + ``detachNodes`` + ``attachNodes``.

        Walks ``other``'s tree in pruned pre-order from its root, whose
        entry here is detached first (the caller places it).  Each
        progressed child is re-linked under its parent's entry here and
        descended into; its ``clk`` is written when its subtree is done
        (rules 1-3 of the module docstring).  When ``old_root`` is given
        (the monotone-copy case) that entry is re-linked even if it has
        not progressed, so that the old root gets repositioned under the
        new one.

        Returns ``(processed, updated)``: the root plus the child-node
        examinations performed — the "light gray" area of Figures 4 and
        5, i.e. the quantity that defines ``TCWork`` — and the number of
        entries whose clock value changed (``VTWork``).
        """
        other_clk, other_aclk = other._clk, other._aclk
        other_head, other_nxt, other_parent = other._head, other._nxt, other._parent
        clk, aclk, parent = self._clk, self._aclk, self._parent
        head, nxt, prv = self._head, self._nxt, self._prv
        top = other._root
        linked = parent[top]
        if linked >= 0:
            # Detach `top` (with its subtree) here; the caller places it.
            before = prv[top]
            after = nxt[top]
            if before >= 0:
                nxt[before] = after
            else:
                head[linked] = after
            if after >= 0:
                prv[after] = before
            parent[top] = prv[top] = nxt[top] = -1
        examined = 0
        updated = 0
        node = top
        child = other_head[top]
        last = -1
        while True:
            while child >= 0:
                examined += 1
                if clk[child] < other_clk[child]:
                    # Progressed: re-link after `last` and descend.
                    aclk[child] = other_aclk[child]
                    if parent[child] != node or prv[child] != last:
                        # Unlink, then _link_after, written out: a helper
                        # call here made sync-scaling walks 12-20% slower
                        # (CPython 3.11, 2-core Xeon).
                        linked = parent[child]
                        if linked >= 0:
                            before = prv[child]
                            after = nxt[child]
                            if before >= 0:
                                nxt[before] = after
                            else:
                                head[linked] = after
                            if after >= 0:
                                prv[after] = before
                        parent[child] = node
                        prv[child] = last
                        if last >= 0:
                            after = nxt[last]
                            nxt[last] = child
                        else:
                            after = head[node]
                            head[node] = child
                        nxt[child] = after
                        if after >= 0:
                            prv[after] = child
                    node = child
                    child = other_head[child]
                    last = -1
                    continue
                if child == old_root:
                    # Monotone copy: the old root (which has no parent) must
                    # be repositioned even though its clock has not progressed.
                    self._link_after(child, node, last)
                    aclk[child] = other_aclk[child]
                    if clk[child] != other_clk[child]:
                        clk[child] = other_clk[child]
                        updated += 1
                    last = child
                if other_aclk[child] <= clk[node]:
                    # Indirect monotonicity: all remaining (older) siblings
                    # are already known to this clock.
                    break
                child = other_nxt[child]
            # The subtree of `node` is done: now its clock may change.
            value = other_clk[node]
            if clk[node] != value:
                clk[node] = value
                updated += 1
            if node == top:
                return examined + 1, updated
            last = node
            child = other_nxt[node]
            node = other_parent[node]

    def _clear(self) -> None:
        """Make this clock the empty clock (all-zero vector time)."""
        size = len(self._clk)
        self._root = -1
        self._clk[:] = [0] * size
        for column in self._columns()[1:]:
            column[:] = [-1] * size

    def _deep_copy_from(self, other: "TreeClock") -> Tuple[int, int]:
        """Make this clock an exact structural copy of ``other``.

        Six slice copies, after both clocks' columns are grown to the
        universe.  Returns ``(processed, updated)``: the nodes of
        ``other``, and the entries whose clock value differs.
        """
        if other is self:
            return self.node_count, 0
        self._grow()
        other._grow()
        if self._root < 0:
            changed = len(other._clk) - other._clk.count(0)
        else:
            changed = sum(map(ne, self._clk, other._clk))
        for mine, theirs in zip(self._columns(), other._columns()):
            mine[:] = theirs
        self._root = other._root
        return other.node_count, changed
