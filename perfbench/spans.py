"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``-1`` at the top) and ``op`` the operation id shared
by every span of one operation.  A layer's self time is its spans'
durations minus the parts their child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]


class Recorder:
    def __init__(self) -> None:
        self._names: List[str] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._parents: List[int] = []
        self._ops: List[int] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[None]:
        index = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ops.append(op)
        self._ends.append(0.0)
        self._stack.append(index)
        self._starts.append(time.perf_counter())
        try:
            yield
        finally:
            self._ends[index] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, op: int,
            parent: Optional[int] = None) -> int:
        """Record a span measured elsewhere (e.g. reported by a server)."""
        index = len(self._names)
        self._names.append(name)
        self._starts.append(start)
        self._ends.append(end)
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self._parents.append(parent)
        self._ops.append(op)
        return index

    def spans(self) -> List[Span]:
        return list(zip(self._names, self._starts, self._ends,
                        self._parents, self._ops))

    def self_ms(self) -> Dict[str, float]:
        """Total self time per span name, in milliseconds."""
        child_ms = [0.0] * len(self._names)
        for index, parent in enumerate(self._parents):
            if parent >= 0:
                child_ms[parent] += self._ends[index] - self._starts[index]
        totals: Dict[str, float] = {}
        for index, name in enumerate(self._names):
            own = self._ends[index] - self._starts[index] - child_ms[index]
            totals[name] = totals.get(name, 0.0) + own * 1000.0
        return totals

    def write(self, path: str) -> None:
        """Write every span as one NDJSON line."""
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans():
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")
