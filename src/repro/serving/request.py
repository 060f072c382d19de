"""Request/response envelopes for the serving layer.

A :class:`ServeRequest` carries one caller's input rows (one or more
kernel iterations); the server batches several requests into one
accelerator invocation and splits the merged outputs back out per
request.  Completion is signalled through a :class:`ServeHandle`, a small
thread-safe future the caller blocks on.
"""

from __future__ import annotations

from _thread import allocate_lock
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ServingError

__all__ = ["ServeRequest", "ServeResult", "ServeHandle"]

# Guards every handle's ``_done`` flag and callback list.  The critical
# sections are a few attribute reads and writes, no callback runs under
# it and none nests, so one process-wide lock serves all handles and a
# handle allocates no lock for it.
_STATE_LOCK = allocate_lock()


@dataclass(slots=True)
class ServeResult:
    """What the caller gets back for one request."""

    request_id: int
    outputs: np.ndarray
    worker: str
    #: Seconds the request sat in the admission queue before dispatch.
    queue_wait_s: float
    #: Seconds from submission to completion (queue + service + recovery).
    latency_s: float
    #: Recovered fraction of the whole batch this request rode in.
    fix_fraction: float
    #: True when the server was operating under backpressure degradation
    #: while this request was dispatched (quality may be reduced).
    degraded: bool
    #: Request-trace id (0 when tracing was disabled for this request);
    #: the key into the flight recorder and ``python -m repro trace``.
    trace_id: int = 0

    @property
    def n_elements(self) -> int:
        return int(self.outputs.shape[0])


class ServeHandle:
    """A minimal thread-safe future for one request's completion.

    Besides the blocking :meth:`result`, completion can be observed with
    :meth:`add_done_callback` — the hook the network edge uses to bridge
    worker-thread completions back into its event loop without parking a
    thread per in-flight request.  Callbacks run on whichever thread
    completes the request (or immediately, on the registering thread, if
    the handle is already done), so they must be cheap and must not
    block.
    """

    __slots__ = ("_barrier", "_result", "_exception", "_done", "_callbacks")

    def __init__(self) -> None:
        # One request is created per submit, so construction cost is hot-
        # path cost: one raw lock and a flag instead of a full
        # threading.Event (whose Condition allocates a lock, a deque, and
        # three bound methods per instance).  ``_barrier`` starts held and
        # is released exactly once at completion; waiters acquire-then-
        # release it in a chain, and late arrivals short-circuit on the
        # ``_done`` flag, which ``_STATE_LOCK`` guards.
        barrier = allocate_lock()
        barrier.acquire()
        self._barrier = barrier
        self._result: Optional[ServeResult] = None
        self._exception: Optional[BaseException] = None
        self._done = False
        # Created by the first registration: most handles never get one.
        self._callbacks: Optional[list] = None

    def done(self) -> bool:
        return self._done

    def set_result(self, result: ServeResult) -> None:
        self._result = result
        self._finish()

    def set_exception(self, exc: BaseException) -> None:
        self._exception = exc
        self._finish()

    def _finish(self) -> None:
        with _STATE_LOCK:
            if self._done:  # first completion wins (Event.set idempotency)
                return
            self._done = True
            self._barrier.release()
            callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks or ():
            callback(self)

    def add_done_callback(self, callback) -> None:
        """Call ``callback(handle)`` once the request completes.

        Exactly-once per registration: a callback registered after
        completion fires immediately on the calling thread.
        """
        with _STATE_LOCK:
            if not self._done:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(callback)
                return
        callback(self)

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        """Block until the request completes; raises on failure/timeout."""
        if not self._done:
            if timeout is None:
                self._barrier.acquire()
            elif not self._barrier.acquire(True, timeout):
                raise ServingError(
                    "timed out waiting for the request to complete"
                )
            # Hand the barrier to the next waiter in line.
            self._barrier.release()
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result


@dataclass(slots=True)
class ServeRequest:
    """One admitted request, queued for batching.

    ``submitted_at`` is a ``time.monotonic()`` reading taken at admission;
    the server uses it both for the deadline-based batch flush and for the
    latency accounting reported in :class:`ServeResult`.  ``deadline_s``
    is the request's total time budget: dispatch, any fault-triggered
    re-dispatches (counted in ``attempts``), and recovery must all fit
    inside it, after which the server fails the request with
    :class:`ServingError` rather than retrying further.
    """

    request_id: int
    inputs: np.ndarray
    submitted_at: float
    handle: ServeHandle = field(default_factory=ServeHandle)
    #: Total deadline budget in seconds (None = the server's default).
    deadline_s: Optional[float] = None
    #: Fault-triggered re-dispatches so far (0 = first attempt).
    attempts: int = 0
    #: Request-trace context (see :mod:`repro.observability.reqtrace`);
    #: None when tracing is disabled.  The same object rides through
    #: every retry attempt, so one trace id spans all attempts.
    trace: Optional[object] = None
    #: True when ``inputs`` is a buffer leased from the server's
    #: :class:`~repro.serving.bufpool.BufferPool`; the server recycles it
    #: (exactly once) when the request reaches terminal completion.
    pooled: bool = False
    #: Forced backpressure level for the request's batch; replay passes
    #: the journaled level here.  None = the controller's level.
    level: Optional[int] = None

    @property
    def n_elements(self) -> int:
        return int(self.inputs.shape[0])

    def deadline_at(self, default_deadline_s: float) -> float:
        """Absolute ``time.monotonic()`` instant the budget expires."""
        budget = self.deadline_s if self.deadline_s is not None else default_deadline_s
        return self.submitted_at + budget
