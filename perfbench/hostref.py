"""Host-speed reference: a fixed pure-Python kernel timed next to the measured work.

The benchmark runs on shared hosts whose per-core speed moves by up to 2x,
over seconds and over minutes, with the load of other tenants.  Such a move
slows every pure-Python loop of a run alike, the program's and this kernel's.
So each timed step is paired with a run of :func:`kernel` taken next to it,
and every timing is reported at the *nominal* host speed: the speed at which
the kernel takes :data:`NOMINAL_NS`.  The host factor is the kernel's mean
time over the step's samples divided by :data:`NOMINAL_NS`; a rate is
multiplied by it and a duration divided by it.  The kernel touches nothing
of the program, so a change to the program moves the scaled figures exactly
as it moves the raw ones; the raw figures are the scaled ones times or
divided by the factors that a traced run reports as ``host.*``.

The kernel does the interpreter work the analysis does: element-wise list
max (a vector-clock join), dict stores, and attribute reads and method calls
along a linked structure (a tree-clock walk).
"""

from __future__ import annotations

import time
from typing import List

#: The kernel's time on an idle 2 GHz Xeon vCPU under CPython 3.11 in its
#: fast state (its slow state takes 1.1-1.35 ms).  It only sets the scale of
#: the reported figures.
NOMINAL_NS = 720_000


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next_node: "_Node | None") -> None:
        self.value = value
        self.next = next_node

    def total(self) -> int:
        total = 0
        node: "_Node | None" = self
        while node is not None:
            total += node.value
            node = node.next
        return total


def kernel() -> int:
    """A fixed amount of interpreter work, 0.72 ms on the nominal host."""
    a = list(range(40))
    b = [i ^ 5 for i in range(40)]
    seen = {}
    for k in range(300):
        for i in range(40):
            if b[i] > a[i]:
                a[i] = b[i]
        seen[k & 63] = a[k % 40]
        b[k % 40] += k & 3
    head = None
    for i in range(200):
        head = _Node(i, head)
    total = 0
    for _ in range(40):
        total += head.total()  # type: ignore[union-attr]
    return total + len(seen)


def sample() -> int:
    """Wall nanoseconds one :func:`kernel` call takes."""
    started = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - started


class HostIndex:
    """Kernel samples taken next to one timed step."""

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: List[int] = []

    def add(self, ns: int) -> None:
        self.samples.append(ns)

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.samples.append(sample())

    def factor(self) -> float:
        """Mean kernel time / :data:`NOMINAL_NS`; above 1 when the host runs slow."""
        return sum(self.samples) / len(self.samples) / NOMINAL_NS
