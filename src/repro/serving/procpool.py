"""Process-based worker pool for the serving layer.

Each worker is an OS process that owns a full :class:`RumbaSystem` shard,
cloned (in the worker, after a single unpickle at startup) from the
server's prepared prototype — the same ``clone_shard()`` path the thread
backend uses, so both backends start from identical online state.

Batches travel through per-worker :class:`~repro.serving.shm.ShmRing`
pairs as raw float64 blocks; pickle never touches the data path after
startup.  Each ``FRAME_RESULT`` carries, besides the merged outputs, a
small pickled *metrics snapshot* of the worker's cumulative counters —
the channel the parent uses to aggregate ``stats()`` and registry series
across processes.

Protocol (per worker, ``seq`` identifies the batch)::

    parent ──FRAME_BATCH(seq, inputs)────────────► worker
    parent ──FRAME_DEGRADE/FRAME_RELAX(factor)───► worker
    parent ──FRAME_STOP──────────────────────────► worker
    worker ──FRAME_RESULT(seq, outputs, snapshot)► parent
    worker ──FRAME_ERROR(seq, pickled exception)─► parent
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, ServingError
from repro.observability.reqtrace import STAGE_SHM_READ
from repro.serving.backpressure import DEGRADE_FACTOR
from repro.serving.journal import pack_bits
from repro.serving.shm import (
    FRAME_BATCH,
    FRAME_DEGRADE,
    FRAME_ERROR,
    FRAME_RELAX,
    FRAME_RESULT,
    FRAME_STOP,
    ShmFrame,
    ShmRing,
)

__all__ = ["ProcessWorkerPool", "ProcessWorker", "worker_snapshot"]

_POLL_S = 0.0005  # worker/parent idle poll interval
#: Invocation records a serving shard retains (``RumbaSystem.max_records``).
#: Nothing in serving reads them; unbounded, a long-lived shard leaks one
#: record per batch.
SHARD_RECORD_WINDOW = 256
_FACTOR_FMT = "<d"


def worker_snapshot(
    system, record=None, include_bits: bool = False
) -> Dict[str, float]:
    """The per-batch report a worker ships with each result.

    Cumulative counters (not deltas), so the parent's view is correct
    even if a frame's report is observed late, plus — given the batch's
    ``record`` — its :meth:`~repro.core.runtime.InvocationRecord.facts`
    and stage chain, which is everything the core's per-worker telemetry
    and the batch's request traces read.  With ``include_bits`` the
    batch's per-element decision bits ride along as packed bytes — the
    request journal needs them, and shipping them only when a journal
    is attached keeps the default RESULT frame small.
    """
    snap = {
        "invocations": int(system.total_invocations),
        "threshold": float(system.tuner.threshold),
        "degradation_level": int(system.tuner.degradation_level),
        "total_checks": int(system.detection.total_checks),
        "total_fires": int(system.detection.total_fires),
        "total_recoveries": int(system.recovery.total_recoveries),
    }
    if record is not None:
        snap.update(record.facts())
        snap["stages"] = record.stages
        if include_bits:
            snap["decision_bits"], snap["decision_nbits"] = pack_bits(
                record.detection.recovery_bits
            )
            choices = getattr(record, "choices", None)
            if choices is not None:
                # The batch's per-row routing decisions ride with the
                # decision bits: the journal needs them so replay can
                # force the same members through the ensemble.
                snap["backend_ids"] = np.asarray(
                    choices, dtype=np.int8
                ).tobytes()
    ensemble = getattr(system, "ensemble", None)
    if ensemble is not None:
        snap["ensemble"] = ensemble.snapshot()
    return snap


def _worker_main(
    system_blob: bytes,
    in_name: str,
    out_name: str,
    measure_quality: bool,
    ship_decision_bits: bool = False,
) -> None:
    """Worker process entry point: unpickle once, then serve frames."""
    in_ring = ShmRing.attach(in_name)
    out_ring = ShmRing.attach(out_name)
    try:
        prototype = pickle.loads(system_blob)
        system = prototype.clone_shard(max_records=SHARD_RECORD_WINDOW)
        while True:
            # Zero-copy read: BATCH payloads are consumed as views of ring
            # memory; the frame is advanced (bytes released to the
            # producer) only after the invocation no longer references
            # them.  Nothing the invocation record retains aliases the
            # inputs, so advancing right after run_invocation is safe.
            frame = in_ring.try_read(zero_copy=True)
            if frame is None:
                time.sleep(_POLL_S)
                continue
            read_at = time.monotonic()
            if frame.kind == FRAME_STOP:
                in_ring.advance(frame)
                return
            if frame.kind in (FRAME_DEGRADE, FRAME_RELAX):
                (factor,) = struct.unpack(_FACTOR_FMT, frame.extra)
                in_ring.advance(frame)
                direction = +1 if frame.kind == FRAME_DEGRADE else -1
                system.apply_backpressure(direction, factor)
                continue
            if frame.kind != FRAME_BATCH:
                in_ring.advance(frame)
                continue
            try:
                # A BATCH frame's extra bytes are the batch's forced
                # per-row member choices (int8, replay only); copied out
                # because the frame's ring memory is released below.
                forced = (
                    np.frombuffer(bytes(frame.extra), dtype=np.int8)
                    if frame.extra else None
                )
                record = system.run_invocation(
                    frame.payload, measure_quality=measure_quality,
                    forced_choices=forced,
                )
            except Exception as exc:  # forwarded to parent as FRAME_ERROR;
                # KeyboardInterrupt/SystemExit deliberately propagate so a
                # signalled worker actually dies instead of pickling the
                # interrupt into a batch error and looping forever.
                in_ring.advance(frame)
                try:
                    blob = pickle.dumps(exc)
                except Exception:
                    blob = pickle.dumps(ServingError(repr(exc)))
                _write_blocking(out_ring, FRAME_ERROR, frame.seq, None, blob)
            else:
                in_ring.advance(frame)
                snapshot = worker_snapshot(
                    system, record, include_bits=ship_decision_bits
                )
                # This side's own hop opens the record's chain:
                # CLOCK_MONOTONIC is system-wide per boot on Linux, so
                # the parent can place these readings on its own
                # timeline (clamped on the way in).
                snapshot["stages"] = [
                    (STAGE_SHM_READ, read_at), *record.stages
                ]
                extra = pickle.dumps(snapshot)
                _write_blocking(
                    out_ring, FRAME_RESULT, frame.seq, record.outputs, extra,
                    trace_id=frame.trace_id,
                )
    finally:
        # An exception that leaves the loop mid-batch (a signalled
        # worker's KeyboardInterrupt) still holds the batch's zero-copy
        # payload view — here and in every frame of its traceback — and
        # a mapping cannot close under a live export.
        frame = None
        traceback.clear_frames(sys.exc_info()[2])
        in_ring.close()
        out_ring.close()


def _write_blocking(
    ring: ShmRing,
    kind: int,
    seq: int,
    payload: Optional[np.ndarray],
    extra: bytes,
    timeout_s: Optional[float] = None,
    still_alive=None,
    trace_id: int = 0,
) -> bool:
    """Spin (politely) until the frame fits; False on timeout/death."""
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while not ring.try_write(
        kind, seq, payload=payload, extra=extra, trace_id=trace_id
    ):
        if still_alive is not None and not still_alive():
            return False
        if deadline is not None and time.monotonic() >= deadline:
            return False
        time.sleep(_POLL_S)
    return True


@dataclass
class ProcessWorker:
    """Parent-side handle for one worker process and its ring pair.

    The handle is *stable across restarts*: when the supervisor replaces
    a dead worker it swaps ``process`` and both rings in place, so
    anything holding the handle (backpressure proxies, shard views) keeps
    addressing the same logical worker slot.
    """

    name: str
    process: mp.Process
    in_ring: ShmRing   # parent writes, worker reads
    out_ring: ShmRing  # worker writes, parent reads
    outstanding: int = 0
    dead: bool = False
    restarts: int = 0
    snapshot: Dict[str, float] = field(default_factory=dict)

    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()


class _WorkerBackpressureProxy:
    """Quacks like a RumbaSystem shard for the BackpressureController.

    ``apply_backpressure`` becomes a control frame on the worker's input
    ring; the worker applies the step to its own tuner, exactly as the
    thread backend's direct call would.
    """

    def __init__(self, pool: "ProcessWorkerPool", index: int):
        self._pool = pool
        self._index = index  # resolved per call: handles exist from start()

    def apply_backpressure(self, direction: int, factor: float) -> float:
        kind = FRAME_DEGRADE if direction > 0 else FRAME_RELAX
        self._pool.send_control(self._pool.workers[self._index], kind, factor)
        return 0.0  # the authoritative threshold lives in the worker


class ProcessWorkerPool:
    """Spawn/feed/harvest a group of process workers over shm rings.

    Parameters
    ----------
    prototype:
        The prepared system; pickled exactly once and shipped to every
        worker at startup.
    ring_capacity_bytes:
        Per-direction ring size.  Must hold at least one frame of the
        largest batch (inputs one way, outputs the other).
    """

    def __init__(
        self,
        prototype,
        n_workers: int,
        ring_capacity_bytes: int = 1 << 22,
        measure_quality: bool = False,
        ship_decision_bits: bool = False,
    ):
        if n_workers < 1:
            raise ConfigurationError("need at least one process worker")
        self._prototype = prototype
        self.n_workers = n_workers
        self.ring_capacity_bytes = ring_capacity_bytes
        self.measure_quality = measure_quality
        # Workers ship each batch's packed decision bits in the RESULT
        # snapshot only when a request journal needs them.
        self.ship_decision_bits = ship_decision_bits
        self._ctx = mp.get_context()
        self.workers: List[ProcessWorker] = []
        self._started = False
        self._stopped = False
        self._blob: Optional[bytes] = None  # kept for supervisor restarts
        self.total_restarts = 0
        #: Optional fault injector (see :mod:`repro.serving.faults`);
        #: consulted on the control-frame path when set.
        self.chaos = None

    @property
    def worker_names(self) -> List[str]:
        """The worker slots' names, known before any process exists."""
        return [f"p{i}" for i in range(self.n_workers)]

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #
    def _spawn(self, index: int) -> "tuple[mp.Process, ShmRing, ShmRing]":
        """Create one worker's ring pair and (started) process.

        On any failure nothing leaks: rings created before the failing
        step are closed and unlinked before the exception propagates.
        """
        in_ring = ShmRing(self.ring_capacity_bytes)
        try:
            out_ring = ShmRing(self.ring_capacity_bytes)
        except Exception:
            in_ring.close()
            in_ring.unlink()
            raise
        try:
            process = self._ctx.Process(
                target=_worker_main,
                args=(self._blob, in_ring.name, out_ring.name,
                      self.measure_quality, self.ship_decision_bits),
                name=f"rumba-serve-p{index}",
                daemon=True,
            )
            process.start()
        except Exception:
            in_ring.close()
            out_ring.close()
            in_ring.unlink()
            out_ring.unlink()
            raise
        return process, in_ring, out_ring

    @staticmethod
    def _dismantle(worker: ProcessWorker, timeout: float = 5.0) -> None:
        """Kill a worker's process (if any) and destroy its rings."""
        worker.dead = True
        try:
            if worker.process.pid is not None and worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=timeout)
        except Exception:  # pragma: no cover - teardown races
            pass
        # Unlink first: a close that raises must not leak the segment.
        worker.in_ring.unlink()
        worker.out_ring.unlink()
        worker.in_ring.close()
        worker.out_ring.close()

    def start(self) -> "ProcessWorkerPool":
        if self._started:
            raise ServingError("pool already started")
        self._blob = pickle.dumps(self._prototype)  # one pickle per lifetime
        try:
            for i, name in enumerate(self.worker_names):
                process, in_ring, out_ring = self._spawn(i)
                self.workers.append(
                    ProcessWorker(
                        name=name, process=process,
                        in_ring=in_ring, out_ring=out_ring,
                    )
                )
        except Exception:
            # Partial start: reap every worker (and shm segment) that did
            # come up, then surface the original failure.  Without this a
            # mid-loop Process.start() error leaves _started False, stop()
            # early-returns, and every already-created ring leaks.
            for worker in self.workers:
                self._dismantle(worker)
            self.workers = []
            raise
        self._started = True
        return self

    def restart_worker(
        self,
        worker: ProcessWorker,
        degradation_level: int = 0,
    ) -> bool:
        """Replace a dead worker's process and rings in place.

        The new process clones a fresh shard from the startup prototype
        blob, after which ``degradation_level`` backpressure steps (the
        dead worker's last reported level) are re-applied so the restart
        does not silently jump the fleet back to nominal quality under
        load.  Returns False when the pool is not in a restartable state.
        """
        if not self._started or self._stopped or self._blob is None:
            return False
        index = self.workers.index(worker)
        self._dismantle(worker)
        process, in_ring, out_ring = self._spawn(index)
        worker.process = process
        worker.in_ring = in_ring
        worker.out_ring = out_ring
        worker.outstanding = 0
        worker.dead = False
        worker.restarts += 1
        self.total_restarts += 1
        for _ in range(max(int(degradation_level), 0)):
            self.send_control(worker, FRAME_DEGRADE, DEGRADE_FACTOR)
        return True

    def stop(self, timeout: float = 10.0) -> None:
        if not self._started or self._stopped:
            self._stopped = True
            return
        for worker in self.workers:
            if worker.process.is_alive():
                _write_blocking(
                    worker.in_ring, FRAME_STOP, 0, None, b"",
                    timeout_s=1.0, still_alive=worker.process.is_alive,
                )
        for worker in self.workers:
            worker.process.join(timeout=timeout)
            self._dismantle(worker, timeout=1.0)  # terminates a straggler
        self._stopped = True

    # ------------------------------------------------------------------ #
    # Data path                                                          #
    # ------------------------------------------------------------------ #
    def submit(
        self,
        worker: ProcessWorker,
        seq: int,
        inputs: np.ndarray,
        timeout_s: float = 30.0,
        trace_id: int = 0,
    ) -> None:
        """Ship one already-concatenated batch (see :meth:`submit_rows`)."""
        self.submit_rows(
            worker, seq, [np.atleast_2d(inputs)],
            timeout_s=timeout_s, trace_id=trace_id,
        )

    def submit_rows(
        self,
        worker: ProcessWorker,
        seq: int,
        blocks,
        timeout_s: float = 30.0,
        trace_id: int = 0,
        extra: bytes = b"",
    ) -> None:
        """Ship one batch as per-request row blocks written directly into
        ring memory (:meth:`ShmRing.write_rows`) — the zero-copy dispatch
        path: no parent-side concat buffer exists at all.  ``trace_id``
        (the batch-representative request trace) rides in the frame
        header and is echoed back on the worker's RESULT frame; ``extra``
        carries the batch's forced routing choices during replay.
        Raises when the batch cannot be delivered.
        """
        if not worker.alive():
            raise ServingError(f"worker {worker.name} is not alive")
        deadline = time.monotonic() + timeout_s
        while not worker.in_ring.write_rows(
            FRAME_BATCH, seq, blocks, extra=extra, trace_id=trace_id
        ):
            if not worker.alive() or time.monotonic() >= deadline:
                raise ServingError(
                    f"could not deliver batch {seq} to worker {worker.name} "
                    f"(ring full for {timeout_s:.0f}s or worker died)"
                )
            time.sleep(_POLL_S)

    def poll(self, worker: ProcessWorker) -> List[ShmFrame]:
        """Drain every completed frame currently on a worker's out ring."""
        frames: List[ShmFrame] = []
        while True:
            frame = worker.out_ring.try_read()
            if frame is None:
                return frames
            frames.append(frame)

    def send_control(
        self, worker: ProcessWorker, kind: int, factor: float
    ) -> bool:
        """Best-effort DEGRADE/RELAX delivery; False if the worker is gone."""
        if self._stopped or not worker.alive():
            return False
        extra = struct.pack(_FACTOR_FMT, factor)
        if self.chaos is not None:
            extra = self.chaos.filter_control(extra)
            if extra is None:  # injected drop
                return False
        return _write_blocking(
            worker.in_ring, kind, 0, None, extra,
            timeout_s=1.0, still_alive=worker.alive,
        )

    def backpressure_proxies(self) -> List[_WorkerBackpressureProxy]:
        """Shard stand-ins wiring a BackpressureController to the pool."""
        return [
            _WorkerBackpressureProxy(self, i) for i in range(self.n_workers)
        ]

    @staticmethod
    def decode_error(frame: ShmFrame) -> BaseException:
        """Rehydrate a FRAME_ERROR's exception (ServingError fallback)."""
        try:
            exc = pickle.loads(frame.extra)
            if isinstance(exc, BaseException):
                return exc
        except Exception:  # pragma: no cover - defensive
            pass
        return ServingError("worker reported an undecodable error")
