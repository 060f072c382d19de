"""Per-invocation spans of the online loop.

One accelerator invocation produces one *invocation span* plus one child
span per phase (``accelerate``, ``detect``, ``recover``, ``tune``), cut by
:meth:`repro.observability.Telemetry.observe` from the stage chain the
runtime stamped on the invocation record.  Spans carry the timing and
whatever attributes the record supplies — element counts, fire counts,
and the pipeline model's cycle quantities, so a trace ties the *observed*
wall time to the *modelled* hardware time of the same invocation.

Spans buffer inside the :class:`Tracer` (a bounded deque — a long-running
stream cannot leak) and can be mirrored to a :class:`JsonlSpanExporter`,
which writes one JSON object per line: the format every trace viewer and
``jq`` pipeline can ingest.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError

__all__ = ["Span", "Tracer", "JsonlSpanExporter"]

AttrValue = Union[float, int, str, bool]


@dataclass
class Span:
    """One timed operation within one invocation.

    ``start`` / ``end`` and ``monotonic_time`` (the span's start) are
    ``time.monotonic()`` readings — the *authoritative* timestamps,
    comparable with every other stamp the serving layer records.
    ``wall_time`` is the epoch second the span began, kept **for display
    only** (exported as ``wall_time_display``): wall clocks step under
    NTP and must never be used for ordering or duration arithmetic.
    """

    name: str
    invocation: int
    start: float
    end: float = 0.0
    wall_time: float = 0.0
    monotonic_time: float = 0.0
    attributes: Dict[str, AttrValue] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return max(self.end - self.start, 0.0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "invocation": self.invocation,
            "monotonic_time": self.monotonic_time,
            "wall_time_display": self.wall_time,
            "duration_s": self.duration,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """Buffers committed spans; optionally streams them to an exporter.

    ``max_spans`` bounds the in-memory buffer (oldest spans fall off);
    exported spans are written as they are committed, before they can be
    evicted.
    """

    def __init__(
        self,
        max_spans: int = 4096,
        exporter: Optional["JsonlSpanExporter"] = None,
    ):
        if max_spans < 1:
            raise ConfigurationError("max_spans must be >= 1")
        self.spans: Deque[Span] = deque(maxlen=max_spans)
        self.exporter = exporter
        self._invocation = -1

    def commit(
        self,
        timeline: Iterable[Tuple[str, float, float, Mapping[str, AttrValue]]],
    ) -> List[Span]:
        """Commit one finished invocation's spans (buffer + export).

        ``timeline`` holds ``(name, start, end, attributes)`` entries on
        the ``time.monotonic()`` axis, in completion order; the call is
        one invocation and numbers its spans with the next invocation id.
        """
        self._invocation += 1
        # Monotonic is authoritative (orders against every serving
        # stamp); the wall reading is a display-only correlation aid,
        # derived from one pair of clock reads per invocation.
        wall_offset = time.time() - time.monotonic()
        committed = [
            Span(
                name=name,
                invocation=self._invocation,
                start=start,
                end=end,
                wall_time=start + wall_offset,
                monotonic_time=start,
                attributes=dict(attributes),
            )
            for name, start, end, attributes in timeline
        ]
        for span in committed:
            self.spans.append(span)
            if self.exporter is not None:
                self.exporter.export(span)
        return committed

    def span_counts(self) -> Dict[str, int]:
        """Committed spans per name (the per-phase span counts)."""
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def spans_for(self, invocation: int) -> List[Span]:
        return [s for s in self.spans if s.invocation == invocation]


class JsonlSpanExporter:
    """Writes spans as JSON Lines to a path or an open text handle."""

    def __init__(self, destination: Union[str, TextIO]):
        if isinstance(destination, str):
            self._handle: TextIO = open(destination, "w")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False
        self.exported = 0

    def export(self, span: Span) -> None:
        self._handle.write(json.dumps(span.to_dict()) + "\n")
        self.exported += 1

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlSpanExporter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
