"""In-memory spans around the benchmark's own calls into the library.

A span is (id, name, start, end, parent, op).  Root spans ("op", "probe",
"setup") mark one unit of benchmark work; leaf spans time one call into a
module's public function and name it ``<module>.<function>``.  Spans stay
in memory until the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._next_id = 0
        self._parent: Optional[int] = None
        self._op: Optional[int] = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def root(self, name: str, op: Optional[int] = None):
        sid = self._new_id()
        outer = self._parent, self._op
        self._parent, self._op = sid, op
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._parent, self._op = outer
            self.spans.append(Span(sid, name, start, end, None, op))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Traced counterpart of ``workloads.plain_call``."""
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                Span(self._new_id(), name, start, perf_counter(), self._parent, self._op)
            )

    def write(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start - origin,
                            "end": s.end - origin,
                            "parent": s.parent,
                            "op": s.op,
                        }
                    )
                    + "\n"
                )


def roots(spans: list[Span], name: str) -> dict[int, Span]:
    """Root spans of one kind, keyed by span id."""
    return {s.id: s for s in spans if s.parent is None and s.name == name}


def child_totals(spans: list[Span], name: str) -> dict[int, dict[str, list[float]]]:
    """For each root span of kind ``name``: child name -> [seconds, calls]."""
    parents = roots(spans, name)
    out: dict[int, dict[str, list[float]]] = {sid: defaultdict(lambda: [0.0, 0]) for sid in parents}
    for s in spans:
        if s.parent in parents:
            entry = out[s.parent][s.name]
            entry[0] += s.duration
            entry[1] += 1
    return out


def self_times(spans: list[Span], name: str) -> list[float]:
    """Root duration minus the time its child spans cover, per root."""
    totals = child_totals(spans, name)
    parents = roots(spans, name)
    return [
        parents[sid].duration - sum(t for t, _ in children.values())
        for sid, children in totals.items()
    ]


def median_of(totals: dict[int, dict[str, list[float]]], child: str, index: int = 0) -> float:
    """Median over roots of one child's total seconds (index 0) or calls (1);
    a root without that child counts as 0."""
    if not totals:
        return 0.0
    return float(
        statistics.median(
            children[child][index] if child in children else 0.0
            for children in totals.values()
        )
    )
