"""Spans recorded by the benchmark around its calls into each layer.

The program is not instrumented: every span here is taken from outside,
either by timing a public call or from the public fields of a result.
Spans stay in memory and are written out once, when the workload ends.

Two kinds of child exist because a layer cannot always be observed while
its parent runs:

* a **nested** child lies inside its parent's interval (``core.begin``
  inside the benchmark's own begin+complete pair); it takes away the part
  of the parent's interval it covers;
* a **replayed** child is the same work run again on the same inputs after
  the parent finished (``approx.forward`` re-run after ``run_invocation``);
  it takes away its whole duration.

A span's self time is its duration minus both.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request_id: int = 0
    replayed: bool = False
    #: True when start/end were placed from reported durations (a result's
    #: ``queue_wait_s``) rather than read from this process's clock.
    derived: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """An append-only in-memory span list with self-time arithmetic."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request_id: int = 0,
        replayed: bool = False,
        derived: bool = False,
    ) -> int:
        span = Span(len(self.spans), name, start, end, parent, request_id,
                    replayed, derived)
        self.spans.append(span)
        return span.id

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[int] = None,
        request_id: int = 0,
        replayed: bool = False,
    ) -> Iterator[int]:
        """Time the body; yields the span id so children can name it."""
        span_id = self.add(name, time.perf_counter(), float("nan"), parent,
                           request_id, replayed)
        try:
            yield span_id
        finally:
            self.spans[span_id].end = time.perf_counter()

    def children(self, span_id: int) -> List[Span]:
        return [s for s in self.spans if s.parent == span_id]

    def self_time(self, span_id: int) -> float:
        """Duration minus nested coverage minus replayed durations."""
        parent = self.spans[span_id]
        return _self_time(parent, self.children(span_id))

    def self_times(self) -> Dict[str, List[float]]:
        """Self time of every span, grouped by span name."""
        by_parent: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                by_parent.setdefault(span.parent, []).append(span)
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(
                _self_time(span, by_parent.get(span.id, []))
            )
        return out

    def durations(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(span.duration)
        return out

    def dump(self, path: str, header: Optional[dict] = None) -> None:
        document = dict(header or {})
        document["spans"] = [asdict(s) for s in self.spans]
        with open(path, "w") as handle:
            json.dump(document, handle)


def _self_time(parent: Span, children: List[Span]) -> float:
    replayed = sum(c.duration for c in children if c.replayed)
    intervals = sorted(
        (max(c.start, parent.start), min(c.end, parent.end))
        for c in children if not c.replayed
    )
    covered = 0.0
    reach = parent.start
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return parent.duration - covered - replayed
