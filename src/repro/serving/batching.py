"""Bounded request admission and deadline-based batch formation.

The admission queue is the server's front door and its first line of
backpressure: capacity is fixed at construction, and an :meth:`offer`
against a full queue returns False (the server sheds the request) instead
of queueing unboundedly.

A batch flushes for the first of four reasons (:func:`flush_reason`):

* **size** — ``max_batch_requests`` requests are waiting;
* **close** — the queue was closed (what is left goes out at once);
* **idle** — fewer batches are in flight than the server has workers:
  admission is work-conserving, a request never waits while a worker
  could run it (Nagle's rule: the batches in flight clock the batching);
* **timer** — the *oldest* waiting request has been queued for
  ``flush_interval_s`` seconds while every worker was busy.

Under heavy load batches fill instantly and the accelerator runs at full
occupancy; under light load a request leaves the moment it arrives; in
between, ``flush_interval_s`` bounds the wait.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from itertools import islice
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ServingError
from repro.serving.bufpool import BufferPool
from repro.serving.request import ServeRequest

__all__ = ["FLUSH_REASONS", "AdmissionQueue", "concat_inputs",
           "flush_reason", "split_outputs"]

#: Why a batch left the admission queue, in order of precedence.
FLUSH_REASONS = ("size", "close", "idle", "timer")


def concat_inputs(
    requests: Sequence[ServeRequest], pool: Optional[BufferPool] = None
) -> np.ndarray:
    """Stack the requests' input rows into one accelerator invocation.

    A single-request batch returns that request's input block as-is (no
    copy).  With ``pool``, multi-request batches write into a leased
    buffer instead of allocating — the caller owns the lease and must
    release it once the invocation no longer references the batch.
    """
    if not requests:
        raise ConfigurationError("cannot build a batch from zero requests")
    if len(requests) == 1:
        return np.atleast_2d(requests[0].inputs)
    blocks = [np.atleast_2d(r.inputs) for r in requests]
    if pool is None:
        return np.concatenate(blocks, axis=0)
    n_cols = blocks[0].shape[1]
    total = sum(b.shape[0] for b in blocks)
    out = pool.lease((total, n_cols))
    offset = 0
    for block in blocks:
        if block.shape[1] != n_cols:
            pool.release(out)
            raise ConfigurationError(
                "all requests in a batch must have the same column count"
            )
        out[offset: offset + block.shape[0]] = block
        offset += block.shape[0]
    return out


def split_outputs(
    outputs: np.ndarray, requests: Sequence[ServeRequest]
) -> List[np.ndarray]:
    """Slice a batch's merged outputs back into per-request blocks."""
    outputs = np.atleast_2d(outputs)
    blocks: List[np.ndarray] = []
    offset = 0
    for request in requests:
        end = offset + request.n_elements
        blocks.append(outputs[offset:end])
        offset = end
    if offset != outputs.shape[0]:
        raise ServingError(
            f"batch outputs have {outputs.shape[0]} rows but the requests "
            f"submitted {offset}"
        )
    return blocks


def flush_reason(
    n_pending: int, oldest_at: float, now: float, in_flight: int,
    workers: int, closed: bool, max_batch_requests: int,
    flush_interval_s: float,
) -> Optional[str]:
    """Why a batch is due at ``now`` (one of :data:`FLUSH_REASONS`), or
    None when the ``n_pending`` waiting requests should keep waiting.

    ``oldest_at`` is the oldest waiting request's admission instant and
    ``in_flight`` the number of batches taken and not yet reported back.
    """
    if not n_pending:
        return None
    if n_pending >= max_batch_requests:
        return "size"
    if closed:
        return "close"
    if in_flight < workers:
        return "idle"
    if now >= oldest_at + flush_interval_s:
        return "timer"
    return None


class AdmissionQueue:
    """Bounded FIFO of waiting requests, batched by :func:`flush_reason`.

    Thread-safe: any number of producers may :meth:`offer` while worker
    threads block in :meth:`take`.  ``workers`` is how many batches the
    server can run at once; every batch taken must be reported back with
    :meth:`batch_done`.  The in-flight count only ever *adds* a reason to
    flush, so a missed report degrades to the flush timer, never a hang.
    """

    def __init__(
        self,
        capacity: int = 256,
        max_batch_requests: int = 8,
        flush_interval_s: float = 0.01,
        workers: int = 1,
    ):
        if capacity < 1:
            raise ConfigurationError("admission capacity must be >= 1")
        if max_batch_requests < 1:
            raise ConfigurationError("max_batch_requests must be >= 1")
        if flush_interval_s < 0:
            raise ConfigurationError("flush_interval_s must be >= 0")
        self.capacity = capacity
        self.max_batch_requests = max_batch_requests
        self.flush_interval_s = flush_interval_s
        self.workers = workers
        self._pending: Deque[ServeRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.in_flight = 0
        self.offered = 0
        self.shed = 0

    def __len__(self) -> int:
        with self._cond:
            return len(self._pending)

    @property
    def is_closed(self) -> bool:
        with self._cond:
            return self._closed

    def backlog(self) -> int:
        """Batches of work the server owes: those taken and not yet
        reported back, plus the batches the waiting requests would form.
        This is what the backpressure controller watches."""
        with self._cond:
            waiting = -(-len(self._pending) // self.max_batch_requests)
            return self.in_flight + waiting

    def offer(self, request: ServeRequest) -> bool:
        """Admit a request; returns False (sheds) when the queue is full."""
        with self._cond:
            if self._closed:
                raise ServingError("admission queue is closed")
            self.offered += 1
            pending = self._pending
            if len(pending) >= self.capacity:
                self.shed += 1
                return False
            pending.append(request)
            # Only the arrivals that can make a batch due wake a consumer:
            # the first one (idle rule, and someone must hold its timer)
            # and the one that fills the batch.
            if len(pending) in (1, self.max_batch_requests):
                self._cond.notify()
            return True

    def requeue(self, request: ServeRequest) -> None:
        """Put a retried request back at the *front* of the queue.

        Bypasses the capacity bound: the request was already admitted
        once and is still counted in flight, so shedding it here would
        turn a transient worker fault into an :class:`OverloadedError`.
        Its original ``submitted_at`` makes the front-of-queue flush
        deadline fire immediately, so retries never wait out another
        full flush interval.
        """
        with self._cond:
            if self._closed:
                # Raced against close(): the server began shutting down
                # between the worker fault and this retry landing.  The
                # caller must fail the request's handle — silently
                # swallowing this leaves the submitter blocked until its
                # deadline budget runs out.
                raise ServingError(
                    "cannot requeue a retry: the admission queue is closed"
                )
            self._pending.appendleft(request)
            self._cond.notify()

    def take(self) -> Optional[Tuple[str, List[ServeRequest]]]:
        """Block until a batch is due; returns ``(reason, requests)``, or
        None once the queue is closed and drained.  The batch counts as
        in flight until :meth:`batch_done`."""
        with self._cond:
            pending = self._pending
            while True:
                if not pending:
                    if self._closed:
                        return None
                    self._cond.wait()
                    continue
                oldest_at = pending[0].submitted_at
                now = time.monotonic()
                reason = flush_reason(
                    len(pending), oldest_at, now, self.in_flight,
                    self.workers, self._closed,
                    self.max_batch_requests, self.flush_interval_s,
                )
                if reason is None:
                    # Wake at the oldest request's deadline (or earlier:
                    # the batch fills, a worker frees up, the queue closes).
                    self._cond.wait(oldest_at + self.flush_interval_s - now)
                    continue
                k = self.max_batch_requests
                if k >= len(pending):
                    # Full drain: one bulk copy + clear instead of
                    # k popleft() round trips.
                    batch = list(pending)
                    pending.clear()
                else:
                    batch = list(islice(pending, k))
                    for _ in range(k):
                        pending.popleft()
                    # Pass the wake on: the leftovers may already be a
                    # full batch whose fill woke no one, and someone must
                    # hold their timer while this consumer dispatches.
                    self._cond.notify()
                self.in_flight += 1
                return reason, batch

    def take_batch(self) -> Optional[List[ServeRequest]]:
        """:meth:`take` without the reason."""
        taken = self.take()
        return None if taken is None else taken[1]

    def batch_done(self) -> None:
        """Report a taken batch back (completed or failed, exactly once)."""
        with self._cond:
            self.in_flight -= 1
            if self._pending and self.in_flight < self.workers:
                # A worker went idle with requests waiting.
                self._cond.notify()

    def close(self) -> None:
        """Stop admitting; blocked consumers flush what remains then stop."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain_remaining(self) -> List[ServeRequest]:
        """Remove and return every still-queued request (for teardown)."""
        with self._cond:
            out = list(self._pending)
            self._pending.clear()
            return out
