"""Worker transports: how a dispatched batch reaches a shard and comes back.

The serving core (:mod:`repro.serving.server`) owns everything that is
the same whichever engine runs the invocations.  A transport owns where
the :class:`~repro.core.runtime.RumbaSystem` shards live and how a batch
travels to one:

* ``prepare(prototype)`` builds the worker slots (no thread or process
  yet) and returns ``[(worker_name, system_or_None), ...]``;
* ``start(pump)`` spawns the workers and runs ``pump(dispatch, worker="")``
  — the core's admission dequeue loop — on as many threads as can take
  batches concurrently, each bound to a ``dispatch(batch)`` callable
  (which may raise; the core then applies its retry policy);
* ``stop(timeout)`` joins the pumps and tears the workers down;
* ``backpressure_targets()`` and ``workers()`` are the read-outs for
  backpressure and ``stats()`` (the backlog the controller watches is
  the core's own: :meth:`AdmissionQueue.backlog`).

Every accepted batch is reported back exactly once through the callback
pair given at construction: ``on_complete(batch, worker, outputs,
report)`` or ``on_failure(batch, error, worker)``, where ``report`` is
:func:`repro.serving.procpool.worker_snapshot` on both transports.  A
transport releases whatever the batch borrowed (leases, ring frames,
pending entries) before reporting and stamps only its own hops — the
runtime stamps the invocation's phases on the record, and the report
ships that chain to the core; only the core resolves handles.
``docs/serving.md`` has the full contract.
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.runtime import InvocationRecord, RumbaSystem
from repro.errors import ConfigurationError, ServingError, WorkerCrashError
from repro.observability.reqtrace import STAGE_COLLECT, STAGE_SHM_WRITE
from repro.serving.batching import concat_inputs
from repro.serving.procpool import (
    SHARD_RECORD_WINDOW,
    ProcessWorker,
    ProcessWorkerPool,
    worker_snapshot,
)
from repro.serving.request import ServeRequest
from repro.serving.shm import FRAME_ERROR

__all__ = [
    "Batch",
    "ProcessTransport",
    "ThreadTransport",
    "WorkerTransport",
    "stamp_batch",
]

#: ``(name, alive, restarts, snapshot)`` — one row of :meth:`workers`.
WorkerStatus = Tuple[str, bool, int, Dict[str, object]]


@dataclass
class Batch:
    """One admission batch on its way through a transport."""

    #: Unique per dispatch (a retried request rides a new batch).
    seq: int
    requests: List[ServeRequest]
    #: The batch's sampled traces, precomputed at dequeue (empty = none).
    traced: List[object]
    dispatched_at: float
    #: The fleet was degraded when the batch was dispatched.
    degraded: bool


def stamp_batch(
    traces: List[object], stage: str, at: Optional[float] = None
) -> None:
    """Stamp one stage event on each of a batch's traces.

    The batch's trace list is precomputed once, at dequeue; with tracing
    disabled it is empty and every stamp along the batch's path
    short-circuits here without reading the clock.
    """
    if not traces:
        return
    if at is None:
        at = time.monotonic()
    for trace in traces:
        trace.stamp(stage, at=at)


def _forced_choices(requests: List[ServeRequest]) -> Optional[np.ndarray]:
    """Concatenate a batch's forced routing choices (None = live).

    Mixed batches are rejected: forcing only some rows of an invocation
    would interleave recorded decisions with a router whose online state
    no longer matches the recorded run.  Replay batches one request per
    invocation, so this never triggers there.
    """
    forced = [r.backend_ids for r in requests]
    if all(ids is None for ids in forced):
        return None
    if any(ids is None for ids in forced):
        raise ConfigurationError(
            "a batch cannot mix forced and live-routed requests"
        )
    if len(forced) == 1:
        return forced[0]
    return np.concatenate(forced)


class WorkerTransport:
    """What both transports share: the core's callbacks and the config.

    ``worker_metrics(name)`` resolves the core's per-worker metric
    children; ``include_bits`` asks for decision bits in every report.
    """

    #: The process pool, for callers that need worker pids (None here).
    pool: Optional[ProcessWorkerPool] = None

    def __init__(
        self,
        config,
        *,
        on_complete: Callable[[Batch, str, np.ndarray, Dict], None],
        on_failure: Callable[[Batch, BaseException, str], None],
        worker_metrics: Callable[[str], object],
        include_bits: bool,
    ):
        self.config = config
        self._on_complete = on_complete
        self._on_failure = on_failure
        self._worker_metrics = worker_metrics
        self._include_bits = include_bits
        self._threads: List[threading.Thread] = []

    def _spawn(self, target, *args, name: str) -> None:
        thread = threading.Thread(
            target=target, args=args, name=name, daemon=True
        )
        thread.start()
        self._threads.append(thread)

    def _join(self, timeout: float) -> None:
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []


# ---------------------------------------------------------------------- #
# In-process threads                                                     #
# ---------------------------------------------------------------------- #
class ThreadTransport(WorkerTransport):
    """One thread per shard; a batch runs whole on the thread that took it.

    Concat, ``run_invocation``, report: the same sequence a worker
    process runs (:func:`repro.serving.procpool._worker_main`).  The
    paper overlaps CPU recovery with the accelerator (Fig. 8) because
    they are two pieces of hardware; here both halves are Python on one
    interpreter, where a second thread buys no overlap, so the overlap
    is modelled (:func:`repro.core.pipeline.simulate_pipeline` prices it
    for every invocation) and not enacted.
    """

    def __init__(self, config, *, bufpool, **core):
        super().__init__(config, **core)
        self._bufpool = bufpool
        self._shards: List[Tuple[str, RumbaSystem]] = []

    def prepare(self, prototype: RumbaSystem):
        for i in range(self.config.n_workers):
            name = f"w{i}"
            # Nothing in serving reads ``system.records``; the window
            # keeps a long-lived shard from retaining every invocation.
            system = prototype.clone_shard(max_records=SHARD_RECORD_WINDOW)
            self._shards.append((name, system))
        return list(self._shards)

    def start(self, pump) -> None:
        for name, system in self._shards:
            self._spawn(
                pump, partial(self._run, name, system), name,
                name=f"rumba-serve-{name}",
            )

    def stop(self, timeout: float) -> None:
        self._join(timeout)

    def backpressure_targets(self) -> List[RumbaSystem]:
        return [system for _, system in self._shards]

    def workers(self) -> List[WorkerStatus]:
        # Thread shards live and die with the server: never restarted.
        return [
            (name, True, 0, worker_snapshot(system))
            for name, system in self._shards
        ]

    def _run(self, worker: str, system: RumbaSystem, batch: Batch) -> None:
        try:
            record = self._invoke(system, batch)
        except Exception as exc:
            # A retry re-runs the invocation from the top on a healthy
            # shard; kernels are pure, so re-execution is safe.
            self._on_failure(batch, exc, worker)
            return
        report = worker_snapshot(
            system, record, include_bits=self._include_bits
        )
        self._on_complete(batch, worker, record.outputs, report)

    def _invoke(self, system: RumbaSystem, batch: Batch) -> InvocationRecord:
        inputs = concat_inputs(batch.requests, pool=self._bufpool)
        try:
            return system.run_invocation(
                inputs,
                measure_quality=self.config.measure_quality,
                forced_choices=_forced_choices(batch.requests),
            )
        finally:
            # Multi-request batches concatenate into a leased buffer (a
            # single request rides its own staged block).  Recovery —
            # re-executing flagged rows — was its last reader and nothing
            # in the record aliases it, so the arena can recycle now.
            if len(batch.requests) > 1:
                self._bufpool.release(inputs)


# ---------------------------------------------------------------------- #
# Worker processes over shared-memory rings                              #
# ---------------------------------------------------------------------- #
class ProcessTransport(WorkerTransport):
    """A :class:`ProcessWorkerPool`, one dispatcher and one collector.

    The dispatcher writes each batch's rows straight into the least
    loaded live worker's input ring and parks it in the pending map; the
    collector harvests RESULT/ERROR frames and supervises: a dead worker
    is restarted in place and every batch it held is failed with
    :class:`WorkerCrashError`, which the core's retry policy re-dispatches
    — the paper's "re-execute what the checker flagged", one level up.

    ``chaos`` is the server's fault injector (attached to the pool at
    start); ``fleet_level()`` is the controller's current degradation
    level, re-applied to a restarted worker that never reported its own.
    """

    def __init__(self, config, *, chaos, fleet_level, **core):
        super().__init__(config, **core)
        self._chaos = chaos
        self._fleet_level = fleet_level
        self._pending: Dict[int, Tuple[Batch, ProcessWorker]] = {}
        self._lock = threading.Lock()
        self._stopping = False

    def prepare(self, prototype: RumbaSystem):
        # Fail at prepare time, not in a worker, if the prototype cannot
        # cross the process boundary.
        try:
            pickle.dumps(prototype)
        except Exception as exc:
            raise ServingError(
                "process backend needs a picklable prototype "
                f"(registry applications are): {exc!r}"
            ) from exc
        self.pool = ProcessWorkerPool(
            prototype,
            n_workers=self.config.n_workers,
            ring_capacity_bytes=self.config.ring_capacity_bytes,
            measure_quality=self.config.measure_quality,
            ship_decision_bits=self._include_bits,
        )
        return [(name, None) for name in self.pool.worker_names]

    def start(self, pump) -> None:
        self.pool.start()
        self._spawn(pump, self._dispatch, name="rumba-serve-dispatch")
        self._spawn(self._collect_loop, name="rumba-serve-collect")
        if self._chaos is not None:
            self._chaos.attach_pool(self.pool)

    def stop(self, timeout: float) -> None:
        self._stopping = True
        self._join(timeout)
        self.pool.stop(timeout=timeout)

    def backpressure_targets(self):
        return self.pool.backpressure_proxies()

    def workers(self) -> List[WorkerStatus]:
        if self.pool is None:  # stats() on a server not yet prepared
            return []
        return [
            (w.name, w.alive(), w.restarts, w.snapshot)
            for w in self.pool.workers
        ]

    def _dispatch(self, batch: Batch) -> None:
        # No concat buffer: each request's staged rows are written
        # directly into the worker's ring (one frame, block by block).
        blocks = [np.atleast_2d(r.inputs) for r in batch.requests]
        with self._lock:
            alive = [w for w in self.pool.workers if w.alive()]
            if alive:
                worker = min(alive, key=lambda w: (w.outstanding, w.name))
                self._pending[batch.seq] = (batch, worker)
                worker.outstanding += 1
        if not alive:
            # Retryable: the supervisor may restart a worker before the
            # deadline budget runs out; exhaustion fails fast.
            raise WorkerCrashError("no live serving worker processes")
        # The batch shares one ring frame, so the frame header carries
        # the first traced request's id (0 when none is traced).  Forced
        # routing choices (replay) ride as the frame's extra bytes.
        trace_id = batch.traced[0].trace_id if batch.traced else 0
        try:
            forced = _forced_choices(batch.requests)
            self.pool.submit_rows(
                worker, batch.seq, blocks, trace_id=trace_id,
                extra=forced.tobytes() if forced is not None else b"",
            )
        except Exception as exc:
            if self._take(batch.seq, worker) is None:
                # The collector reaped this worker concurrently and now
                # owns (has already retried or failed) the batch.
                return
            if not worker.alive():
                exc = WorkerCrashError(
                    f"worker {worker.name} died while batch {batch.seq} "
                    f"was being delivered: {exc}"
                )
            self._on_failure(batch, exc, worker.name)
            return
        stamp_batch(batch.traced, STAGE_SHM_WRITE)

    def _take(self, seq: int, worker: ProcessWorker) -> Optional[Batch]:
        """Claim a pending batch (None when someone else already did)."""
        with self._lock:
            entry = self._pending.pop(seq, None)
            if entry is None:
                return None
            worker.outstanding -= 1
        return entry[0]

    def _collect_loop(self) -> None:
        while True:
            progressed = False
            for worker in self.pool.workers:
                for frame in self.pool.poll(worker):
                    progressed = True
                    self._handle_frame(worker, frame)
                if not worker.process.is_alive() and not worker.dead:
                    # Harvest anything it managed to publish before dying
                    # (death is final, so every pre-death write is visible
                    # by now), then supervise: restart the worker and
                    # re-dispatch what it took down with it.
                    for frame in self.pool.poll(worker):
                        self._handle_frame(worker, frame)
                    self._reap(worker)
                    progressed = True
            with self._lock:
                n_pending = len(self._pending)
            if self._stopping and n_pending == 0:
                return
            if not progressed:
                time.sleep(0.0005)

    def _handle_frame(self, worker: ProcessWorker, frame) -> None:
        batch = self._take(frame.seq, worker)
        if batch is None:  # already failed (e.g. crash race)
            return
        if frame.kind == FRAME_ERROR:
            self._on_failure(
                batch, ProcessWorkerPool.decode_error(frame), worker.name
            )
            return
        report = pickle.loads(frame.extra)
        worker.snapshot = report
        stamp_batch(batch.traced, STAGE_COLLECT)
        self._on_complete(batch, worker.name, frame.payload, report)

    def _reap(self, worker: ProcessWorker) -> None:
        """Supervise a dead worker: restart it, fail its batches."""
        error = WorkerCrashError(
            f"serving worker {worker.name} "
            f"(pid {worker.process.pid}, exit {worker.process.exitcode}) "
            "died with batches in flight"
        )
        with self._lock:
            worker.dead = True
            seqs = [
                seq for seq, (_, owner) in self._pending.items()
                if owner is worker
            ]
            doomed = [self._pending.pop(seq)[0] for seq in seqs]
            worker.outstanding = 0
        retry = self.config.retry
        if (
            retry.restart_workers
            and not self._stopping
            and (
                retry.max_worker_restarts is None
                or self.pool.total_restarts < retry.max_worker_restarts
            )
        ):
            # Restart from the startup prototype blob, then re-apply the
            # worker's last reported degradation level so a mid-overload
            # restart does not silently jump back to nominal quality.
            level = int(worker.snapshot.get(
                "degradation_level", self._fleet_level()
            ))
            try:
                restarted = self.pool.restart_worker(
                    worker, degradation_level=level
                )
            except Exception:  # pragma: no cover - spawn failed mid-teardown
                restarted = False
            if restarted:
                self._worker_metrics(worker.name).restarts.inc()
        for batch in doomed:
            self._on_failure(batch, error, worker.name)
