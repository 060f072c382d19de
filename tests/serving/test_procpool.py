"""Process-backend lifecycle tests: clean startup/shutdown, crash
surfacing, and the ProcessWorkerPool data path."""

import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import (
    BatchingConfig,
    ProcessWorkerPool,
    RetryConfig,
    RumbaServer,
    ServerConfig,
)
from repro.serving.procpool import SHARD_RECORD_WINDOW, _worker_main
from repro.serving.shm import FRAME_BATCH, FRAME_ERROR, FRAME_RESULT, ShmRing


def _wait_frames(pool, worker, n=1, timeout_s=30.0):
    frames = []
    deadline = time.monotonic() + timeout_s
    while len(frames) < n:
        frames.extend(pool.poll(worker))
        if time.monotonic() >= deadline:
            raise AssertionError(
                f"worker produced {len(frames)}/{n} frames in {timeout_s}s"
            )
        time.sleep(0.001)
    return frames


class TestProcessWorkerPool:
    def test_submit_poll_round_trip(self, fft_prototype, fft_input_pool):
        pool = ProcessWorkerPool(fft_prototype, n_workers=1)
        pool.start()
        try:
            worker = pool.workers[0]
            inputs = fft_input_pool[:32]
            pool.submit(worker, seq=0, inputs=inputs)
            pool.submit(worker, seq=1, inputs=inputs)
            frames = _wait_frames(pool, worker, n=2)
            assert [f.seq for f in frames] == [0, 1]
            assert all(f.kind == FRAME_RESULT for f in frames)
            assert frames[0].payload.shape[0] == 32
            # The metrics-snapshot channel: cumulative worker counters.
            import pickle
            snap = pickle.loads(frames[1].extra)
            assert snap["invocations"] == 2
            assert snap["threshold"] > 0
            assert 0.0 <= snap["fire_fraction"] <= 1.0
        finally:
            pool.stop()

    def test_stop_joins_workers(self, fft_prototype):
        pool = ProcessWorkerPool(fft_prototype, n_workers=2)
        pool.start()
        processes = [w.process for w in pool.workers]
        assert all(p.is_alive() for p in processes)
        pool.stop()
        assert all(not p.is_alive() for p in processes)

    def test_submit_to_dead_worker_raises(self, fft_prototype,
                                          fft_input_pool):
        pool = ProcessWorkerPool(fft_prototype, n_workers=1)
        pool.start()
        try:
            worker = pool.workers[0]
            worker.process.terminate()
            worker.process.join(timeout=10)
            with pytest.raises(ServingError):
                pool.submit(worker, seq=0, inputs=fft_input_pool[:8])
        finally:
            pool.stop()

    def test_worker_forwards_batch_errors(self, fft_prototype):
        pool = ProcessWorkerPool(fft_prototype, n_workers=1)
        pool.start()
        try:
            worker = pool.workers[0]
            # Wrong input width: the worker's system raises, and the
            # exception crosses back as a FRAME_ERROR instead of killing
            # the worker.
            pool.submit(worker, seq=0, inputs=np.ones((4, 5)))
            (frame,) = _wait_frames(pool, worker, n=1)
            assert frame.kind == FRAME_ERROR
            exc = ProcessWorkerPool.decode_error(frame)
            assert isinstance(exc, Exception)
            assert worker.process.is_alive()
        finally:
            pool.stop()


class _InterruptingSystem:
    """Picklable stand-in whose invocation raises like a delivered signal."""

    cloned_with = []  # max_records of every clone_shard() call

    def clone_shard(self, max_records=None):
        self.cloned_with.append(max_records)
        return self

    def run_invocation(self, *_args, **_kwargs):
        raise KeyboardInterrupt


class TestWorkerMainInterrupts:
    def test_keyboard_interrupt_kills_worker_loop(self):
        # KeyboardInterrupt/SystemExit must propagate out of the worker
        # loop (killing the process) — NOT be pickled into a FRAME_ERROR
        # like an ordinary batch failure.  A worker that swallows its
        # interrupt can never be stopped by signal.
        in_ring = ShmRing(1 << 12)
        out_ring = ShmRing(1 << 12)
        try:
            in_ring_w = ShmRing.attach(in_ring.name)
            in_ring_w.try_write(FRAME_BATCH, seq=0, payload=np.ones((2, 2)))
            in_ring_w.close()
            caught = []

            def run():
                try:
                    _worker_main(
                        pickle.dumps(_InterruptingSystem()),
                        in_ring.name, out_ring.name, False,
                    )
                except BaseException as exc:  # noqa: BLE001 - the assertion
                    caught.append(exc)

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert len(caught) == 1
            assert isinstance(caught[0], KeyboardInterrupt)
            # No error frame was produced: the interrupt escaped the loop.
            assert out_ring.try_read() is None
            # The worker's shard keeps a bounded record window (it would
            # otherwise retain every InvocationRecord for its lifetime).
            assert _InterruptingSystem.cloned_with[-1] == SHARD_RECORD_WINDOW
        finally:
            for ring in (in_ring, out_ring):
                ring.close()
                ring.unlink()


class TestProcessServerLifecycle:
    def test_clean_start_serve_stop(self, fft_prototype, fft_input_pool):
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend="process", n_workers=2,
                batching=BatchingConfig(flush_interval_s=0.001),
            ),
        )
        with server:
            results = [
                server.submit_wait(fft_input_pool[i * 16:(i + 1) * 16],
                                   timeout=60)
                for i in range(6)
            ]
        assert server.state == "stopped"
        n_outputs = fft_prototype.app.n_outputs
        assert all(r.outputs.shape == (16, n_outputs) for r in results)
        stats = server.stats()
        assert stats["backend"] == "process"
        assert sum(w["invocations"] for w in stats["workers"]) == 6

    def test_worker_crash_surfaces_error_not_hang(self, fft_prototype,
                                                  fft_input_pool):
        # With supervision off, a dead worker's requests must fail fast —
        # never hang.  (The restart path that makes them *succeed* is
        # covered in test_resilience.py.)
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend="process", n_workers=1,
                batching=BatchingConfig(flush_interval_s=0.001),
                retry=RetryConfig(restart_workers=False, max_retries=1,
                                  retry_backoff_s=0.01),
            ),
        )
        server.start()
        try:
            # Warm the pipeline, then kill the only worker.
            server.submit_wait(fft_input_pool[:8], timeout=60)
            worker = server.pool.workers[0]
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(timeout=10)
            # In-flight and subsequent requests must fail promptly.
            handle = server.submit(fft_input_pool[:8])
            with pytest.raises(ServingError):
                handle.result(timeout=30)
        finally:
            server.stop()
        assert server.state == "stopped"

    def test_unpicklable_prototype_fails_at_prepare(self, fft_prototype):
        doctored = fft_prototype.clone_shard()
        doctored.recovery.exact_kernel = lambda x: x  # not picklable
        server = RumbaServer(
            prototype=doctored,
            config=ServerConfig(backend="process", n_workers=1),
        )
        with pytest.raises(ServingError, match="picklable"):
            server.prepare()

    def test_unknown_backend_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="backend"):
            RumbaServer(config=ServerConfig(backend="fiber"))
