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
* ``workers()`` and ``cpu_hold`` are the read-outs for ``stats()``.

A batch carries its backpressure level (``Batch.level``); the transport
passes it to ``RumbaSystem.run_invocation(level=)`` with the batch, and
holds no degradation state of its own.

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

import multiprocessing as mp
import os
import pickle
import select
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.runtime import InvocationRecord, RumbaSystem
from repro.errors import WorkerCrashError
from repro.observability.reqtrace import STAGE_COLLECT, STAGE_SHM_WRITE
from repro.serving import cpuhold
from repro.serving.batching import concat_inputs
from repro.serving.procpool import (
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

#: Invocation records a thread shard retains (``RumbaSystem.max_records``);
#: unbounded, a long-lived shard leaks one record per batch.  A process
#: worker keeps one (:func:`repro.serving.procpool._worker_main`).
SHARD_RECORD_WINDOW = 256

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
    #: The backpressure level the batch runs at (0 = nominal quality).
    level: int


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


class WorkerTransport:
    """What both transports share: the core's callbacks and the config.

    ``worker_metrics(name)`` resolves the core's per-worker metric
    children; ``include_bits`` asks for decision bits in every report.
    """

    #: The process pool, for callers that need worker pids (None here).
    pool: Optional[ProcessWorkerPool] = None
    #: The CPU the transport's threads are held on (None: not held).
    cpu_hold: Optional[int] = None

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

    For the same reason the shard threads run on one CPU: ``start()``
    holds the starting thread on the CPU it is on (:mod:`cpuhold`), the
    threads it starts from then on inherit the mask, and ``stop()``
    releases the hold.  The submitter and the shards then hand the GIL
    over without a cross-CPU wake-up.
    """

    def __init__(self, config, *, bufpool, **core):
        super().__init__(config, **core)
        self._bufpool = bufpool
        self._shards: List[Tuple[str, RumbaSystem]] = []
        self._hold: Optional[cpuhold.CpuHold] = None

    def prepare(self, prototype: RumbaSystem):
        for i in range(self.config.n_workers):
            name = f"w{i}"
            system = prototype.clone_shard(max_records=SHARD_RECORD_WINDOW)
            self._shards.append((name, system))
        return list(self._shards)

    @property
    def cpu_hold(self) -> Optional[int]:
        return self._hold.cpu if self._hold is not None else None

    def start(self, pump) -> None:
        self._hold = cpuhold.hold()
        for name, system in self._shards:
            self._spawn(
                pump, partial(self._run, name, system), name,
                name=f"rumba-serve-{name}",
            )

    def stop(self, timeout: float) -> None:
        self._join(timeout)
        if self._hold is not None:
            self._hold.release()
            self._hold = None

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
                level=batch.level,
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
    collector blocks on the workers' out-bells and process sentinels,
    harvests RESULT/ERROR frames and supervises: a dead worker
    is restarted in place and every batch it held is failed with
    :class:`WorkerCrashError`, which the core's retry policy re-dispatches
    — the paper's "re-execute what the checker flagged", one level up.
    A restarted worker needs nothing re-applied: its next batch carries
    the fleet's level like every other.

    ``chaos`` is the server's fault injector (attached to the pool at
    start).
    """

    def __init__(self, config, *, chaos, **core):
        super().__init__(config, **core)
        self._chaos = chaos
        self._pending: Dict[int, Tuple[Batch, ProcessWorker]] = {}
        self._lock = threading.Lock()
        self._stopping = False
        # (reader, writer): stop() rings it to wake an idle collector.
        self._stop_bell = mp.Pipe(duplex=False)

    def prepare(self, prototype: RumbaSystem):
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
        os.write(self._stop_bell[1].fileno(), b"\0")
        self._join(timeout)
        self.pool.stop(timeout=timeout)
        for end in self._stop_bell:
            end.close()

    def workers(self) -> List[WorkerStatus]:
        if self.pool is None:  # stats() on a server not yet prepared
            return []
        return [
            (w.name, w.alive(), w.restarts, w.snapshot)
            for w in self.pool.workers
        ]

    def _dispatch(self, batch: Batch, skip=None) -> None:
        # No concat buffer: each request's staged rows are written
        # directly into the worker's ring (one frame, block by block).
        blocks = [np.atleast_2d(r.inputs) for r in batch.requests]
        with self._lock:
            # ``dead`` is the collector's verdict: no waitpid per batch.
            alive = [w for w in self.pool.workers
                     if not w.dead and w is not skip]
            if alive:
                worker = min(alive, key=lambda w: (w.outstanding, w.name))
                self._pending[batch.seq] = (batch, worker)
                worker.outstanding += 1
        if not alive:
            # Retryable: the supervisor may restart a worker before the
            # deadline budget runs out; exhaustion fails fast.
            raise WorkerCrashError("no live serving worker processes")
        # The batch shares one ring frame, so the frame header carries
        # the first traced request's id (0 when none is traced).
        trace_id = batch.traced[0].trace_id if batch.traced else 0
        try:
            self.pool.submit_rows(
                worker, batch.seq, blocks, trace_id=trace_id,
                level=batch.level,
                published=partial(stamp_batch, batch.traced, STAGE_SHM_WRITE),
            )
        except Exception as exc:
            if self._take(batch.seq, worker) is None:
                # The collector reaped this worker concurrently and now
                # owns (has already retried or failed) the batch.
                return
            if not worker.alive():
                if skip is None:
                    # Dead, not yet reaped: try another worker rather
                    # than spend one of the batch's retries.
                    self._dispatch(batch, skip=worker)
                    return
                exc = WorkerCrashError(
                    f"worker {worker.name} died while batch {batch.seq} "
                    f"was being delivered: {exc}"
                )
            self._on_failure(batch, exc, worker.name)

    def _take(self, seq: int, worker: ProcessWorker) -> Optional[Batch]:
        """Claim a pending batch (None when someone else already did)."""
        with self._lock:
            entry = self._pending.pop(seq, None)
            if entry is None:
                return None
            worker.outstanding -= 1
        return entry[0]

    def _collect_loop(self) -> None:
        watch = None
        while True:
            if watch is None:
                watch = self._watch()
            for worker in self.pool.workers:
                for frame in self.pool.poll(worker):
                    self._handle_frame(worker, frame)
            with self._lock:
                n_pending = len(self._pending)
            if self._stopping and n_pending == 0:
                return
            poller, sentinels = watch
            for fd, _ in poller.poll():
                worker = sentinels.get(fd)
                if worker is None:
                    os.read(fd, 4096)  # drain a bell
                    continue
                if worker.dead:  # stop() outlived our join and closed it
                    return
                # Harvest anything it managed to publish before dying
                # (death is final, so every pre-death write is visible
                # by now), then supervise: restart the worker and
                # re-dispatch what it took down with it.
                worker.process.join(timeout=1.0)
                for frame in self.pool.poll(worker):
                    self._handle_frame(worker, frame)
                self._reap(worker)
                # Its fds are closed, or its sentinel stays readable.
                watch = None
                break

    def _watch(self):
        """One poll over the stop bell and each live worker's out-bell
        and sentinel, kept until a reap changes the set."""
        poller = select.poll()
        poller.register(self._stop_bell[0].fileno(), select.POLLIN)
        sentinels = {}
        for worker in self.pool.workers:
            if not worker.dead:
                poller.register(worker.out_bell.fileno(), select.POLLIN)
                poller.register(worker.process.sentinel, select.POLLIN)
                sentinels[worker.process.sentinel] = worker
        return poller, sentinels

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
            # Restart from the startup prototype blob.
            try:
                restarted = self.pool.restart_worker(worker)
            except Exception:  # pragma: no cover - spawn failed mid-teardown
                restarted = False
            if restarted:
                self._worker_metrics(worker.name).restarts.inc()
        for batch in doomed:
            self._on_failure(batch, error, worker.name)
