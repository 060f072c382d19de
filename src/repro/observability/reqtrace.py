"""Request-scoped distributed tracing across the serving pipeline.

An invocation record's stage chain covers one invocation inside one
process; a served request crosses six runtime hops (TCP client → asyncio
front-end → admission/batch queue → shm ring → process worker →
completion).  This module is the layer that links them:

* :class:`RequestTrace` — one request's trace context: a u64 trace id, a
  sampling flag, and an append-only list of **stage events**
  — ``(stage_name, time.monotonic())`` pairs stamped at every pipeline
  hop.  Stages are *points*; the waterfall segment attributed to a stage
  is the time from the previous stamp to that stage's stamp.
* :class:`TracingPolicy` — the server's sampling decision: 1/N counter
  sampling with force/promote overrides (errors and retries are always
  promoted to sampled so the flight recorder never misses a failure).
* :func:`new_trace_id` — process-unique, non-zero u64 ids (zero is the
  wire sentinel for "server, assign me one").

The runtime stamps the same ``(stage, instant)`` points on every
invocation record (:attr:`repro.core.runtime.InvocationRecord.stages`);
the serving core splices a worker's record chain into the request traces
of the batch it served (:meth:`RequestTrace.splice`).  Readings taken in
a worker process are directly comparable with the parent's —
``CLOCK_MONOTONIC`` is system-wide per boot on Linux — and are clamped on
the way in, which keeps the event chain monotonic by construction where
that may not hold.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "RequestTrace",
    "TracingPolicy",
    "new_trace_id",
    "segments",
    "STAGES",
    "STAGE_ROUTER_RECV",
    "STAGE_ROUTER_FORWARD",
    "STAGE_NET_RECV",
    "STAGE_ADMIT",
    "STAGE_DEQUEUE",
    "STAGE_DISPATCH",
    "STAGE_SHM_WRITE",
    "STAGE_SHM_READ",
    "STAGE_INVOKE",
    "STAGE_ROUTE",
    "STAGE_COMPUTE",
    "STAGE_MEASURE",
    "STAGE_DETECT",
    "STAGE_RECOVER",
    "STAGE_TUNE",
    "STAGE_COLLECT",
    "STAGE_RETRY",
    "STAGE_COMPLETE",
    "STAGE_NET_SEND",
]

# Stage catalog (see docs/observability.md for the full narrative).  The
# tuple order is the canonical pipeline order; a request's event list is
# ordered by stamping time and may repeat stages across retry attempts.
STAGE_ROUTER_RECV = "router_recv"      # gateway decoded the client REQUEST
STAGE_ROUTER_FORWARD = "router_forward"  # gateway forwarded it to a node
STAGE_NET_RECV = "net_recv"            # NetServer decoded the REQUEST frame
STAGE_ADMIT = "admit"                  # admission queue accepted the request
STAGE_DEQUEUE = "dequeue"              # a dispatcher took it out of the queue
STAGE_DISPATCH = "dispatch"            # batch formed, about to hit a worker
STAGE_SHM_WRITE = "shm_write"          # batch frame published on the in-ring
STAGE_SHM_READ = "shm_read"            # worker popped the frame (worker clock)
STAGE_INVOKE = "invoke"                # runtime entered begin_invocation
STAGE_ROUTE = "route"                  # ensemble router picked per-row members
STAGE_COMPUTE = "compute"              # accelerator produced the approx outputs
STAGE_MEASURE = "measure"              # experimenter's exact reference computed
STAGE_DETECT = "detect"                # checker scored, recovery bits set
STAGE_RECOVER = "recover"              # flagged rows re-executed and merged
STAGE_TUNE = "tune"                    # pipeline/cost models run, tuner updated
STAGE_COLLECT = "collect"              # parent read the worker's RESULT frame
STAGE_RETRY = "retry"                  # re-dispatch scheduled after a fault
STAGE_COMPLETE = "complete"            # handle resolved (result or error)
STAGE_NET_SEND = "net_send"            # response frame handed to the writer

STAGES: Tuple[str, ...] = (
    STAGE_ROUTER_RECV,
    STAGE_ROUTER_FORWARD,
    STAGE_NET_RECV,
    STAGE_ADMIT,
    STAGE_DEQUEUE,
    STAGE_DISPATCH,
    STAGE_SHM_WRITE,
    STAGE_SHM_READ,
    STAGE_INVOKE,
    STAGE_ROUTE,
    STAGE_COMPUTE,
    STAGE_MEASURE,
    STAGE_DETECT,
    STAGE_RECOVER,
    STAGE_TUNE,
    STAGE_COLLECT,
    STAGE_RETRY,
    STAGE_COMPLETE,
    STAGE_NET_SEND,
)

_ID_MASK = (1 << 64) - 1
# Weyl-sequence increment (2^64 / golden ratio): consecutive counter
# values map to well-spread ids, and the random per-process base keeps
# ids from colliding across servers sharing one flight log.
_ID_STEP = 0x9E3779B97F4A7C15
_id_base = int.from_bytes(os.urandom(8), "little")
_id_counter = itertools.count(1)


def new_trace_id() -> int:
    """A process-unique non-zero u64 (0 means "assign me one" on the wire)."""
    n = next(_id_counter)
    trace_id = (_id_base + n * _ID_STEP) & _ID_MASK
    return trace_id or 1


def segments(
    events: Iterable[Sequence[object]],
) -> List[Tuple[str, float]]:
    """Waterfall segments: each stage's delta from the previous stamp.

    ``events`` is any chain of ``(stage, instant)`` points — a request
    trace's events, an invocation record's ``stages``, a flight record's
    ``[stage, offset]`` pairs.  The first event anchors the waterfall
    and gets a zero-width segment, so segment durations sum to the time
    from the first stamp to the last.
    """
    out: List[Tuple[str, float]] = []
    previous: Optional[float] = None
    for stage, at in events:
        at = float(at)
        out.append((str(stage), 0.0 if previous is None else at - previous))
        previous = at
    return out


class RequestTrace:
    """One request's trace context: identity + stage event chain.

    Thread-safe: stamps arrive from the admission thread, dispatcher
    threads, the collector, and the event loop.  The
    event list is append-only; every read method returns a copy.
    """

    __slots__ = ("trace_id", "sampled", "_events", "_lock")

    def __init__(
        self, trace_id: Optional[int] = None, sampled: bool = True
    ):
        self.trace_id = int(trace_id) if trace_id else new_trace_id()
        self.sampled = bool(sampled)
        self._events: List[Tuple[str, float]] = []
        self._lock = threading.Lock()

    def stamp(
        self, stage: str, at: Optional[float] = None, clamp: bool = False
    ) -> float:
        """Append one stage event; returns the recorded instant.

        ``at`` lets a caller apply a reading taken earlier (or in a
        worker process); ``clamp=True`` additionally pins the reading to
        be no earlier than the previous event, which keeps chains
        monotonic even if the remote clock is not comparable.
        """
        t = time.monotonic() if at is None else float(at)
        with self._lock:
            if clamp and self._events and t < self._events[-1][1]:
                t = self._events[-1][1]
            self._events.append((stage, t))
        return t

    def splice(self, chain: Sequence[Tuple[str, float]]) -> None:
        """Insert a worker's stage chain where it happened.

        The chain lands before any stamp the parent took after the chain
        ended (``collect``: the transport reads the result before the
        core sees the chain), and every reading from there on is clamped
        like :meth:`stamp` with ``clamp=True`` — a worker that popped its
        frame before the dispatcher got to stamp ``shm_write`` is pinned
        to it rather than reordering the hops.
        """
        if not chain:
            return
        ended_at = float(chain[-1][1])
        with self._lock:
            events = self._events
            cut = len(events)
            while cut and events[cut - 1][1] >= ended_at:
                cut -= 1
            later = events[cut:]
            del events[cut:]
            floor = events[-1][1] if events else float(chain[0][1])
            for stage, at in (*chain, *later):
                floor = max(floor, float(at))
                events.append((stage, floor))

    def mark_sampled(self) -> None:
        """Promote this trace to sampled (errors/retries are always kept)."""
        self.sampled = True

    # ------------------------------------------------------------------ #
    # Read side                                                          #
    # ------------------------------------------------------------------ #
    def events(self) -> List[Tuple[str, float]]:
        """The ``(stage, monotonic_instant)`` chain in stamping order."""
        with self._lock:
            return list(self._events)

    def duration(self) -> float:
        """Seconds from the first stamp to the last (0 with <2 events)."""
        events = self.events()
        if len(events) < 2:
            return 0.0
        return events[-1][1] - events[0][1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestTrace(trace_id={self.trace_id:#018x}, "
            f"sampled={self.sampled}, events={len(self.events())})"
        )


class TracingPolicy:
    """The server's per-request sampling decision.

    ``sample_every=N`` keeps every N-th request (counter-based, so the
    rate is exact, not probabilistic); errors and retries are promoted
    to sampled regardless.  When
    tracing is disabled :meth:`new_trace` returns None and every stamp
    site stays a cheap ``is None`` check.  Unsampled traces still carry
    an identity (so a later promotion keeps the same trace id), but
    consumers should gate per-stage stamping on ``sampled`` — the
    serving hot path does.
    """

    def __init__(self, enabled: bool = True, sample_every: int = 64):
        self.enabled = bool(enabled)
        self.sample_every = max(int(sample_every), 1)
        self._counter = itertools.count()

    @classmethod
    def from_config(cls, config) -> "TracingPolicy":
        """Build from any object with the ``TracingConfig`` attributes."""
        return cls(enabled=config.enabled, sample_every=config.sample_every)

    def new_trace(
        self, trace_id: int = 0, force: Optional[bool] = None
    ) -> Optional[RequestTrace]:
        """A trace for one admitted request; None when tracing is off.

        ``trace_id`` propagates a caller-supplied id (0 = assign one);
        ``force`` overrides the 1/N decision in either direction (the
        wire's force-sample flag maps to ``force=True``).
        """
        if not self.enabled:
            return None
        n = next(self._counter)
        if force is not None:
            sampled = bool(force)
        else:
            sampled = n % self.sample_every == 0
        return RequestTrace(trace_id=trace_id or None, sampled=sampled)
