"""Process-based worker pool for the serving layer.

Each worker is an OS process that owns a full :class:`RumbaSystem` shard,
cloned in the worker from the server's prepared prototype — the same
``clone_shard()`` path the thread backend uses, so both backends start
from identical online state.  The prototype rides in the ``Process``
arguments: a forked worker inherits it and unpickles nothing; a spawn
context pickles it with the arguments.

Batches travel through per-worker :class:`~repro.serving.shm.ShmRing`
pairs as raw float64 blocks; pickle never touches the data path after
startup.  Each ``FRAME_RESULT`` carries, besides the merged outputs, a
small pickled *metrics snapshot* of the worker's cumulative counters —
the channel the parent uses to aggregate ``stats()`` and registry series
across processes.  Each ring has a *doorbell*: a pipe its writer rings
with one byte after every publish, which its reader blocks on.

Protocol (per worker, ``seq`` identifies the batch)::

    parent ──FRAME_BATCH(seq, inputs, level)─────► worker
    parent ──FRAME_STOP──────────────────────────► worker
    worker ──FRAME_RESULT(seq, outputs, snapshot)► parent
    worker ──FRAME_ERROR(seq, pickled exception)─► parent
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import select
import sys
import threading
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import Connection
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, ServingError
from repro.observability.reqtrace import STAGE_SHM_READ
from repro.serving.cpuhold import unheld
from repro.serving.journal import pack_bits
from repro.serving.shm import (
    FRAME_BATCH,
    FRAME_ERROR,
    FRAME_RESULT,
    FRAME_STOP,
    ShmFrame,
    ShmRing,
)

__all__ = ["ProcessWorkerPool", "ProcessWorker", "worker_snapshot"]

#: Back-off while a ring is full, the one wait without a bell: a 4 MB
#: ring against frames of <= 16 KB fills only while its reader stalls.
_FULL_RING_S = 0.0005
#: A worker's bell wait; on each timeout it checks that its parent lives.
_ORPHAN_CHECK_MS = 100


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

    ``degradation_level`` is the level of the worker's last batch and
    ``threshold`` the tuner's threshold at that level.
    """
    last = record if record is not None else (
        system.records[-1] if system.records else None
    )
    level = last.level if last is not None else 0
    snap = {
        "invocations": int(system.total_invocations),
        "threshold": float(system.tuner.threshold_at(level)),
        "degradation_level": level,
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


def _ring(bell: Connection) -> None:
    """Wake a ring's reader after a publish or a refusal (a PAD to skip)."""
    try:
        os.write(bell.fileno(), b"\0")
    except (BlockingIOError, BrokenPipeError):
        # A full pipe already holds a pending wake; a broken one has no
        # reader left (a dead worker reaches the collector by its sentinel).
        pass


def _worker_main(
    prototype,
    in_name: str,
    out_name: str,
    in_bell: Connection,
    out_bell: Connection,
    measure_quality: bool,
    ship_decision_bits: bool = False,
) -> None:
    """Worker process entry point: clone a shard, then serve frames."""
    in_ring = ShmRing.attach(in_name)
    out_ring = ShmRing.attach(out_name)
    # Recorded in the parent at Process(): under fork, siblings hold the
    # bells' write ends, so no EOF tells a worker that its parent died.
    parent = mp.parent_process()
    parent_pid = parent.pid if parent is not None else os.getppid()
    waiter = select.poll()
    waiter.register(in_bell.fileno(), select.POLLIN)
    try:
        # One record: worker_snapshot reads the last, and nothing outside
        # this process can reach the others.
        system = prototype.clone_shard(max_records=1)
        wake_parent = partial(_ring, out_bell)
        while True:
            # Zero-copy read: BATCH payloads are consumed as views of ring
            # memory; the frame is advanced (bytes released to the
            # producer) only after the invocation no longer references
            # them.  Nothing the invocation record retains aliases the
            # inputs, so advancing right after run_invocation is safe.
            frame = in_ring.try_read(zero_copy=True)
            if frame is None:
                # Wait, drain the bell, read again: the parent rings after
                # it publishes, so no wake is lost (spurious ones are).
                if not waiter.poll(_ORPHAN_CHECK_MS):
                    if os.getppid() != parent_pid:
                        return  # orphaned: nobody writes this ring again
                elif not os.read(in_bell.fileno(), 4096):
                    return  # every write end closed: the parent is gone
                continue
            read_at = time.monotonic()
            if frame.kind == FRAME_STOP:
                in_ring.advance(frame)
                return
            if frame.kind != FRAME_BATCH:
                in_ring.advance(frame)
                continue
            try:
                # A BATCH frame's extra byte is the batch's backpressure
                # level (none: level 0); try_read copied it out of the ring.
                extra = frame.extra
                record = system.run_invocation(
                    frame.payload, measure_quality=measure_quality,
                    level=extra[0] if extra else 0,
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
                _write_blocking(
                    out_ring, wake_parent, FRAME_ERROR, frame.seq, None, blob
                )
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
                    out_ring, wake_parent, FRAME_RESULT, frame.seq,
                    record.outputs, extra, trace_id=frame.trace_id,
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


def _destroy(ring: ShmRing) -> None:
    ring.unlink()  # first: a close that raises must not leak the segment
    ring.close()


def _write_blocking(
    ring: ShmRing,
    wake,
    kind: int,
    seq: int,
    payload: Optional[np.ndarray],
    extra: bytes,
    timeout_s: Optional[float] = None,
    still_alive=None,
    trace_id: int = 0,
) -> bool:
    """Spin (politely) until the frame fits, then ``wake()`` the ring's
    reader; False on timeout/death.  Every refusal wakes it too, to skip
    a PAD the frame may be waiting behind."""
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while not ring.try_write(
        kind, seq, payload=payload, extra=extra, trace_id=trace_id
    ):
        wake()
        if still_alive is not None and not still_alive():
            return False
        if deadline is not None and time.monotonic() >= deadline:
            return False
        time.sleep(_FULL_RING_S)
    wake()
    return True


@dataclass
class ProcessWorker:
    """Parent-side handle for one worker process and its ring pair.

    The handle is *stable across restarts*: when the supervisor replaces
    a dead worker it swaps ``process``, both rings and both bells in
    place, so anything holding the handle keeps addressing the same
    logical worker slot.
    """

    name: str
    process: mp.Process
    in_ring: ShmRing   # parent writes, worker reads
    out_ring: ShmRing  # worker writes, parent reads
    in_bell: Connection   # the parent rings it after each in_ring publish
    out_bell: Connection  # the worker rings it after each out_ring publish
    outstanding: int = 0
    dead: bool = False
    restarts: int = 0
    snapshot: Dict[str, float] = field(default_factory=dict)

    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()


class ProcessWorkerPool:
    """Spawn/feed/harvest a group of process workers over shm rings.

    Parameters
    ----------
    prototype:
        The prepared system, passed to every worker process it starts
        (restarts included): under the default fork context the worker
        inherits it as is, and a spawn context pickles it per start.
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
        # Held to ring an in_bell and to mark a worker dead before its
        # bells close, so no write lands on an fd number the OS reused.
        self._bell_lock = threading.Lock()
        self._started = False
        self._stopped = False
        self.total_restarts = 0

    @property
    def worker_names(self) -> List[str]:
        """The worker slots' names, known before any process exists."""
        return [f"p{i}" for i in range(self.n_workers)]

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #
    def _spawn(self, index: int):
        """Create one worker's rings, bells and (started) process.

        Returns the :class:`ProcessWorker` fields after ``name``.  On any
        failure nothing leaks: what was created before the failing step
        is closed (rings also unlinked) before the exception propagates.
        """
        with ExitStack() as undo:
            in_ring = ShmRing(self.ring_capacity_bytes)
            undo.callback(_destroy, in_ring)
            out_ring = ShmRing(self.ring_capacity_bytes)
            undo.callback(_destroy, out_ring)
            child_in, in_bell = self._ctx.Pipe(duplex=False)
            out_bell, child_out = self._ctx.Pipe(duplex=False)
            for bell in (child_in, in_bell, out_bell, child_out):
                undo.callback(bell.close)
            for writer in (in_bell, child_out):  # see _ring
                os.set_blocking(writer.fileno(), False)
            process = self._ctx.Process(
                target=_worker_main,
                args=(self._prototype, in_ring.name, out_ring.name,
                      child_in, child_out,
                      self.measure_quality, self.ship_decision_bits),
                name=f"rumba-serve-p{index}",
                daemon=True,
            )
            with unheld():  # a worker must not inherit a thread server's hold
                process.start()
            undo.pop_all()
        child_in.close()  # the worker's ends live on in the worker
        child_out.close()
        return process, in_ring, out_ring, in_bell, out_bell

    def _dismantle(self, worker: ProcessWorker, timeout: float = 5.0) -> None:
        """Stop and release a worker's process (if any); destroy its rings
        and bells.

        ``close()`` frees the handle's two pipe fds at once instead of
        leaving them to the cycle collector; after it the handle's
        ``pid``, ``exitcode``, ``sentinel`` and ``is_alive()`` raise, so
        a dismantled (``dead``) worker's process is not read again.
        """
        with self._bell_lock:
            worker.dead = True
        process = worker.process
        try:
            if process.pid is not None:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=timeout)
                if process.is_alive():  # a straggler ignored SIGTERM
                    process.kill()
                    process.join()
            process.close()
        except (ValueError, OSError):  # closed already, or a teardown race
            pass
        _destroy(worker.in_ring)
        _destroy(worker.out_ring)
        worker.in_bell.close()
        worker.out_bell.close()

    def _wake(self, worker: ProcessWorker) -> None:
        """Ring a worker's in_bell after a publish or a refusal (see _ring)."""
        with self._bell_lock:
            if not worker.dead:
                _ring(worker.in_bell)

    def start(self) -> "ProcessWorkerPool":
        if self._started:
            raise ServingError("pool already started")
        try:
            for i, name in enumerate(self.worker_names):
                self.workers.append(ProcessWorker(name, *self._spawn(i)))
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

    def restart_worker(self, worker: ProcessWorker) -> bool:
        """Replace a dead worker's process and rings in place.

        The new process clones a fresh shard from the prototype, which
        the parent still holds; every batch carries its own backpressure
        level, so there is no degradation state to restore.  Returns
        False when the pool is not in a restartable state.
        """
        if not self._started or self._stopped:
            return False
        index = self.workers.index(worker)
        self._dismantle(worker)
        (worker.process, worker.in_ring, worker.out_ring,
         worker.in_bell, worker.out_bell) = self._spawn(index)
        worker.outstanding = 0
        worker.dead = False
        worker.restarts += 1
        self.total_restarts += 1
        return True

    def stop(self, timeout: float = 10.0) -> None:
        if not self._started or self._stopped:
            self._stopped = True
            return
        for worker in self.workers:
            if worker.alive():
                _write_blocking(
                    worker.in_ring, partial(self._wake, worker), FRAME_STOP,
                    0, None, b"",
                    timeout_s=1.0, still_alive=worker.alive,
                )
        for worker in self.workers:
            if not worker.dead:
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
        level: int = 0,
        published=None,
    ) -> None:
        """Ship one batch as per-request row blocks written directly into
        ring memory (:meth:`ShmRing.write_rows`) — the zero-copy dispatch
        path: no parent-side concat buffer exists at all.  ``trace_id``
        (the batch-representative request trace) rides in the frame
        header and is echoed back on the worker's RESULT frame.  The
        frame's one extra byte carries the batch's backpressure ``level``.
        ``published()`` runs once the frame is on the ring and before the
        worker is woken, so a stamp it takes precedes the worker's own.
        Raises when the batch cannot be delivered.
        """
        if not worker.alive():
            raise ServingError(f"worker {worker.name} is not alive")
        extra = bytes((level,))
        deadline = time.monotonic() + timeout_s
        while not worker.in_ring.write_rows(
            FRAME_BATCH, seq, blocks, extra=extra, trace_id=trace_id
        ):
            self._wake(worker)  # see _write_blocking
            if not worker.alive() or time.monotonic() >= deadline:
                raise ServingError(
                    f"could not deliver batch {seq} to worker {worker.name} "
                    f"(ring full for {timeout_s:.0f}s or worker died)"
                )
            time.sleep(_FULL_RING_S)
        if published is not None:
            published()
        self._wake(worker)

    def poll(self, worker: ProcessWorker) -> List[ShmFrame]:
        """Drain every completed frame currently on a worker's out ring."""
        frames: List[ShmFrame] = []
        while True:
            frame = worker.out_ring.try_read()
            if frame is None:
                return frames
            frames.append(frame)

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
