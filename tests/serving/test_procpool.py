"""Process-backend lifecycle tests: clean startup/shutdown, crash
surfacing, the ProcessWorkerPool data path and its doorbells."""

import dataclasses
import gc
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

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
from repro.serving.procpool import _worker_main
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

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="a spawned worker unpickles its arguments")
    def test_forked_workers_never_unpickle_the_prototype(
        self, fft_prototype, fft_input_pool, monkeypatch, tmp_path
    ):
        """Under the default (fork) context a worker inherits the
        prototype: neither a started nor a restarted worker rebuilds it
        with ``pickle.loads``.  The patched ``loads`` is inherited by the
        forked workers and notes each system it would rebuild."""
        from repro.core.runtime import RumbaSystem

        notes = tmp_path / "unpickled"
        notes.touch()
        real_loads = pickle.loads

        def noting_loads(data, *args, **kwargs):
            value = real_loads(data, *args, **kwargs)
            if isinstance(value, RumbaSystem):
                with open(notes, "a") as out:
                    out.write(f"{os.getpid()}\n")
            return value

        monkeypatch.setattr(pickle, "loads", noting_loads)
        pool = ProcessWorkerPool(fft_prototype, n_workers=1).start()
        worker = pool.workers[0]
        processes = [worker.process]
        try:
            for seq in range(2):
                pool.submit(worker, seq=seq, inputs=fft_input_pool[:16])
                (frame,) = _wait_frames(pool, worker, n=1)
                assert frame.kind == FRAME_RESULT
                if seq == 0:
                    assert pool.restart_worker(worker)
                    processes.append(worker.process)
        finally:
            pool.stop()
            for process in processes:  # their sentinels, not left to gc
                process.close()
        assert worker.restarts == 1
        assert notes.read_text() == ""

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


SRC = Path(__file__).resolve().parents[2] / "src"
needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="reads /proc"
)

# Starts a 2-worker process server, prints its worker pids, then idles.
_SERVER_SCRIPT = """
import time
from repro.core import prepare_system
from repro.serving import RumbaServer, ServerConfig
server = RumbaServer(
    prototype=prepare_system("fft", scheme="treeErrors", seed=0),
    config=ServerConfig(backend="process", n_workers=2),
).start()
print(*(w.process.pid for w in server.pool.workers), flush=True)
time.sleep(120)
"""


def _stat(pid: int) -> list:
    """``/proc/<pid>/stat`` from field 3 (state) on."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()


def _running(pid: int) -> bool:
    """The process exists and has not exited (an unreaped zombie has)."""
    try:
        return _stat(pid)[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def _cpu_s(pid: int) -> float:
    """User plus system CPU seconds a process has used."""
    fields = _stat(pid)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@needs_proc
class TestDoorbells:
    """The pool's rings are read by blocking on pipes, not by polling."""

    def test_workers_exit_when_their_parent_is_killed(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        ))
        parent = subprocess.Popen(
            [sys.executable, "-c", _SERVER_SCRIPT],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait(timeout=30)
            parent.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 2.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in pids if _running(pid)]
        for pid in orphans:  # do not leave them behind a failing run
            os.kill(pid, signal.SIGKILL)
        assert orphans == []

    def test_idle_server_costs_almost_no_cpu(self, fft_prototype,
                                             fft_input_pool):
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(backend="process", n_workers=2),
        )
        with server:
            # Concurrent requests reach both workers: each has started.
            handles = [server.submit(fft_input_pool[:8]) for _ in range(8)]
            for handle in handles:
                handle.result(timeout=60)
            time.sleep(0.5)
            pids = [w.process.pid for w in server.pool.workers]

            def cpu_s() -> float:
                own = os.times()
                return own.user + own.system + sum(map(_cpu_s, pids))

            before = cpu_s()
            time.sleep(2.0)
            used = cpu_s() - before
        assert used < 0.040, f"2 s idle cost {used:.3f} s of CPU"

    def test_every_publish_wakes_its_reader(self, fft_prototype,
                                            fft_input_pool):
        # More workers than CPUs and a short switch interval.  A missed
        # wake costs a worker its 0.1 s orphan-check timeout, and can
        # leave the collector asleep on a published result for good.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend="process", n_workers=(os.cpu_count() or 1) + 1,
            ),
        )
        try:
            with server:
                for _ in range(20):
                    handles = [server.submit(fft_input_pool[i:i + 4])
                               for i in range(0, 64, 4)]
                    for handle in handles:
                        handle.result(timeout=10)
                round_trips = []
                for _ in range(40):
                    sent = time.monotonic()
                    server.submit_wait(fft_input_pool[:4], timeout=10)
                    round_trips.append(time.monotonic() - sent)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(round_trips)[len(round_trips) // 2] < 0.05

    def test_a_dead_worker_the_collector_has_not_reaped_costs_no_retry(
        self, fft_prototype, fft_input_pool
    ):
        # The dispatcher picks by the collector's ``dead`` flag.  Until the
        # collector reaps a death, the pick can land on the corpse; with
        # no retries to spend, the batch must still reach the live worker.
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend="process", n_workers=2,
                retry=RetryConfig(max_retries=0, restart_workers=False),
            ),
        )
        reaping, release = threading.Event(), threading.Event()
        with server:
            server.submit_wait(fft_input_pool[:8], timeout=60)
            transport = server._transport
            reap = transport._reap

            def held_reap(worker):
                # Returns unreaped until released: the collector keeps
                # harvesting, and meets the sentinel again next pass.
                reaping.set()
                if release.is_set():
                    reap(worker)

            transport._reap = held_reap
            victim = server.pool.workers[0]  # ties go to p0
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=10)
            assert reaping.wait(timeout=10)
            try:
                for i in range(4):
                    server.submit_wait(fft_input_pool[i * 8:(i + 1) * 8],
                                       timeout=30)
            finally:
                release.set()

    def test_doorbells_leak_no_fd(self, fft_prototype):
        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        warm = ShmRing(1 << 12)  # starts the resource tracker (its pipe stays)
        warm.close()
        warm.unlink()
        # An earlier server's process handles wait for the cycle
        # collector to close their pipes; collect them before counting,
        # not in the middle of this pool's life.
        gc.collect()
        before = open_fds()
        pool = ProcessWorkerPool(fft_prototype, n_workers=2).start()
        for _ in range(3):
            assert pool.restart_worker(pool.workers[0])
        pool.stop()
        multiprocessing.active_children()  # forgets the finished workers
        for worker in pool.workers:
            worker.process.close()  # the handle's own sentinel pipe
        assert open_fds() == before


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
        bells = [*multiprocessing.Pipe(duplex=False),
                 *multiprocessing.Pipe(duplex=False)]
        try:
            in_ring_w = ShmRing.attach(in_ring.name)
            in_ring_w.try_write(FRAME_BATCH, seq=0, payload=np.ones((2, 2)))
            in_ring_w.close()
            caught = []

            def run():
                try:
                    _worker_main(
                        _InterruptingSystem(),
                        in_ring.name, out_ring.name, bells[0], bells[3],
                        False,
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
            # The worker's shard keeps one record, the last, which is all
            # worker_snapshot reads (it would otherwise retain every
            # InvocationRecord for its lifetime).
            assert _InterruptingSystem.cloned_with[-1] == 1
        finally:
            for ring in (in_ring, out_ring):
                ring.close()
                ring.unlink()
            for bell in bells:
                bell.close()


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

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="a spawned worker unpickles its arguments")
    def test_forked_worker_serves_an_unpicklable_prototype(
        self, fft_prototype, fft_input_pool
    ):
        """A forked worker inherits the prototype, so an exact kernel that
        cannot be pickled (a lambda) serves: every row the checker flags
        comes back with that kernel's outputs."""
        doctored = fft_prototype.clone_shard()
        width = doctored.app.n_outputs
        doctored.app = dataclasses.replace(
            doctored.app, kernel=lambda x: np.full((len(x), width), 7.0))
        with pytest.raises(Exception):
            pickle.dumps(doctored)
        server = RumbaServer(
            prototype=doctored,
            config=ServerConfig(backend="process", n_workers=1),
        )
        with server:
            result = server.submit_wait(fft_input_pool[:256], timeout=60)
        recovered = (result.outputs == 7.0).all(axis=1)
        assert recovered.any()
        assert recovered.mean() == result.fix_fraction

    def test_unknown_backend_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="backend"):
            RumbaServer(config=ServerConfig(backend="fiber"))


class TestRingFootprint:
    def test_frames_stay_in_the_first_256_kb_of_each_ring(
        self, fft_prototype, fft_input_pool
    ):
        # The ladder's serve_proc shape: 128-row requests, 16 outstanding.
        # A ring whose reader keeps up holds the bytes in flight, so no
        # frame lands past its first 256 KB and the 4 MB beyond are never
        # made resident.
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(backend="process", n_workers=2),
        )
        limit = 256 << 10
        with server:
            handles = []
            for i in range(1200):
                lo = i * 128 % (len(fft_input_pool) - 128)
                handles.append(server.submit(fft_input_pool[lo:lo + 128]))
                if len(handles) == 16:
                    handles.pop(0).result(timeout=60)
            for handle in handles:
                handle.result(timeout=60)
            for worker in server.pool.workers:
                for ring in (worker.in_ring, worker.out_ring):
                    # More than 256 KB went through the ring.
                    assert ring._tail() > limit
                    beyond = np.frombuffer(ring._shm.buf, dtype=np.uint8,
                                           offset=16 + limit)
                    assert not beyond.any()
                    del beyond  # a live view keeps stop() from unmapping

    def test_a_result_over_half_the_ring_reaches_a_sleeping_collector(
        self, fft_prototype, fft_input_pool
    ):
        # In a 64 KB ring, a ~31 KB result leaves the read position near
        # the middle; the next, ~37 KB, fits neither before the end nor
        # before the reader.  The worker publishes a PAD and is refused
        # until the parent skips it, and the parent's collector sleeps on
        # its bell: the refused write has to ring it.
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend="process", n_workers=1, ring_capacity_bytes=64 << 10,
                batching=BatchingConfig(max_batch_requests=1),
            ),
        )
        with server:
            for rows in (1900, 2300):
                result = server.submit_wait(fft_input_pool[:rows], timeout=10)
                assert result.outputs.shape == (rows, 2)
