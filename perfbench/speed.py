"""Machine-speed probe, interleaved with the timed work.

On a shared 2-CPU virtual machine each CPU's speed swings by 40-60%, in
spells from under a second to ~20 s, as other guests load the cores it
shares.  A 35 s run sees a different mix of slow and fast spells each
time, so raw wall times -- even per-operation medians across rounds --
spread by 0.26-0.47 (IQR/median over six identical ``edit`` runs).

The probe is a fixed pure-Python best-first search (heap, dicts, small
objects: the same kind of work the engine does), run for about 1 ms
after every ``EVERY_MS`` of timed work.  Each stretch of operations
between two probes is scaled by ``NOMINAL_MS`` over the mean of those
two probes, i.e. reported in milliseconds at the speed where one probe
takes ``NOMINAL_MS``.  Measured on the same machine, the probe tracks the
engine's slowdowns closely: over 2 s windows, engine time alone spread
0.39 (IQR/median), engine time over probe time 0.03.

The probe never touches the program, so a change to the program moves
the scaled times exactly as it moves the raw ones.  The benchmark pins
itself (and the server it starts) to one CPU, so the probe always runs
on the CPU the work runs on.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from typing import List

#: the probe time that defines the reference speed (about the probe's
#: time on a quiet 2.1 GHz Xeon core)
NOMINAL_MS = 1.0
#: nodes of the probe's search graph
PROBE_NODES = 600
#: timed work between two probes, in ms (a probe costs ~1 ms: ~2.5%)
EVERY_MS = 40.0


class _Node:
    __slots__ = ("name", "edges", "cost")

    def __init__(self, name: str, cost: float) -> None:
        self.name = name
        self.edges: List["_Node"] = []
        self.cost = cost


class Probe:
    """The fixed reference workload."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self.nodes = [_Node("n{}".format(i), rng.random())
                      for i in range(PROBE_NODES)]
        for node in self.nodes:
            node.edges = [self.nodes[rng.randrange(PROBE_NODES)]
                          for _ in range(4)]
        self.reached = self._search()

    def _search(self) -> int:
        seen = {}
        heap = [(0.0, 0, self.nodes[0])]
        pushed = 1
        while heap:
            cost, _, node = heapq.heappop(heap)
            if node.name in seen:
                continue
            seen[node.name] = (cost, len(node.edges))
            for nxt in node.edges:
                if nxt.name not in seen:
                    heapq.heappush(heap, (cost + nxt.cost, pushed, nxt))
                    pushed += 1
        return len(seen)

    def run(self) -> float:
        """One probe, in milliseconds."""
        started = time.perf_counter()
        reached = self._search()
        elapsed = (time.perf_counter() - started) * 1000.0
        if reached != self.reached:
            raise AssertionError("the probe is not deterministic")
        return elapsed


class Clock:
    """Collects one round's operation times and scales them.

    Call :meth:`add` with each operation's raw time; :meth:`finish`
    returns the scaled times in operation order.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.raw: List[float] = []
        self.probes: List[float] = []
        self._scaled: List[float] = []
        self._pending: List[float] = []
        self._since = 0.0
        self._last = probe.run()
        self.probes.append(self._last)

    def add(self, ms: float) -> None:
        self.raw.append(ms)
        self._pending.append(ms)
        self._since += ms
        if self._since >= EVERY_MS:
            self._flush()

    def _flush(self) -> None:
        current = self.probe.run()
        self.probes.append(current)
        factor = NOMINAL_MS / ((self._last + current) / 2.0)
        self._scaled.extend(ms * factor for ms in self._pending)
        self._last = current
        self._pending = []
        self._since = 0.0

    def finish(self) -> List[float]:
        if self._pending:
            self._flush()
        return self._scaled


def scaled(probe: Probe, work):
    """Run ``work()`` between two probes; returns its result and its
    scaled time in seconds."""
    before = probe.run()
    started = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - started
    after = probe.run()
    return result, elapsed * NOMINAL_MS / ((before + after) / 2.0)


def pin_to_one_cpu() -> int:
    """Restrict this process (and the children it starts) to the lowest
    CPU it may run on; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
