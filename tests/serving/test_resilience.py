"""Fault-tolerance integration tests: supervisor restarts, deadline-
budgeted retries, graceful drain, and chaos soaks.

The contract under test (the tentpole of the fault-tolerance layer):
every submitted request either completes exactly once or fails fast with
:class:`ServingError` — no request hangs and none is silently dropped,
no matter what happens to the workers underneath it.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServingError, WorkerCrashError
from repro.serving import (
    BatchingConfig,
    ChaosConfig,
    ProcessWorkerPool,
    RetryConfig,
    RumbaServer,
    ServerConfig,
)


def _shm_listing():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class TestSupervisorRestart:
    def test_killed_worker_restarts_and_requests_complete(
        self, fft_prototype, fft_input_pool
    ):
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend="process", n_workers=2,
                batching=BatchingConfig(flush_interval_s=0.001),
                retry=RetryConfig(retry_backoff_s=0.01),
            ),
        )
        server.start()
        try:
            handles = [server.submit(fft_input_pool[:16]) for _ in range(8)]
            victim = server.pool.workers[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            handles += [server.submit(fft_input_pool[:16]) for _ in range(8)]
            # Every request completes despite the kill: in-flight batches
            # are re-dispatched, and the dead slot is restarted.
            results = [h.result(timeout=60) for h in handles]
            assert len(results) == 16
            deadline = time.monotonic() + 30
            while not victim.alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert victim.alive(), "supervisor never restarted the worker"
            assert victim.restarts >= 1
            stats = server.stats()
            assert stats["worker_restarts"] >= 1
            by_name = {w["worker"]: w for w in stats["workers"]}
            assert by_name[victim.name]["restarts"] >= 1
        finally:
            server.stop()

    def test_restarted_worker_serves_at_the_fleet_level(
        self, restart_after_relax
    ):
        """A worker restarted after the fleet left degradation serves at
        the tuner's own threshold, and says so: the level rides on each
        batch, so a restart has nothing to re-apply and nothing stale to
        come back with."""
        server, later = restart_after_relax()
        assert server.pool.workers[0].restarts >= 1
        base = server.prototype.tuner.threshold
        for result, report in later:
            assert result.degraded is False
            assert report["degradation_level"] == 0
            assert report["threshold"] == base

    def test_restart_telemetry_counter(self, fft_prototype, fft_input_pool):
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend="process", n_workers=1,
                batching=BatchingConfig(flush_interval_s=0.001),
                retry=RetryConfig(retry_backoff_s=0.01),
            ),
        )
        server.start()
        try:
            server.submit_wait(fft_input_pool[:8], timeout=60)
            os.kill(server.pool.workers[0].process.pid, signal.SIGKILL)
            server.submit_wait(fft_input_pool[:8], timeout=60)
        finally:
            server.stop()
        from repro.observability.export import prometheus_text
        text = prometheus_text(server.registry)
        assert "rumba_serve_worker_restarts" in text
        assert "rumba_serve_retries" in text

    def test_max_worker_restarts_bounds_supervision(self, fft_prototype,
                                                    fft_input_pool):
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend="process", n_workers=1,
                batching=BatchingConfig(flush_interval_s=0.001),
                retry=RetryConfig(retry_backoff_s=0.01,
                                  max_worker_restarts=0, max_retries=1),
            ),
        )
        server.start()
        try:
            server.submit_wait(fft_input_pool[:8], timeout=60)
            os.kill(server.pool.workers[0].process.pid, signal.SIGKILL)
            handle = server.submit(fft_input_pool[:8])
            with pytest.raises(ServingError):
                handle.result(timeout=30)
            assert server.pool.total_restarts == 0
        finally:
            server.stop()


class TestRetryBudget:
    def test_retry_exhaustion_fails_fast(self, fft_prototype,
                                         fft_input_pool):
        # No supervision, one worker, killed: retries burn down to the
        # bound and the caller gets ServingError — never a hang.
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend="process", n_workers=1,
                batching=BatchingConfig(flush_interval_s=0.001),
                retry=RetryConfig(restart_workers=False, max_retries=2,
                                  retry_backoff_s=0.01),
            ),
        )
        server.start()
        try:
            server.submit_wait(fft_input_pool[:8], timeout=60)
            os.kill(server.pool.workers[0].process.pid, signal.SIGKILL)
            handle = server.submit(fft_input_pool[:8])
            started = time.monotonic()
            with pytest.raises(ServingError, match="attempt"):
                handle.result(timeout=30)
            assert time.monotonic() - started < 25
            assert server.stats()["retries"] >= 1
        finally:
            server.stop()

    def test_deadline_budget_exhaustion(self, fft_prototype,
                                        fft_input_pool):
        # A tiny per-request deadline: the first crash-triggered retry
        # would land past the budget, so the request fails on the
        # deadline branch even though the retry *count* is not exhausted.
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend="process", n_workers=1,
                batching=BatchingConfig(flush_interval_s=0.001),
                retry=RetryConfig(restart_workers=False, max_retries=100,
                                  retry_backoff_s=0.2,
                                  default_deadline_s=0.05),
            ),
        )
        server.start()
        try:
            server.submit_wait(fft_input_pool[:8], timeout=60,
                               deadline_s=60.0)
            os.kill(server.pool.workers[0].process.pid, signal.SIGKILL)
            handle = server.submit(fft_input_pool[:8])
            with pytest.raises(ServingError, match="deadline|attempt"):
                handle.result(timeout=30)
        finally:
            server.stop()

    def test_retry_losing_close_race_fails_handle(self, fake_server,
                                                  fft_input_pool):
        # Regression for the requeue-vs-close race: a backed-off retry
        # that lands after the admission queue closed must fail its
        # handle with the typed error — the old path let the retry
        # vanish and the submitter hang out its whole deadline budget.
        server, fake = fake_server(retry_backoff_s=1e6,
                                   default_deadline_s=1e7)
        handle = server.submit(fft_input_pool[:8])
        assert server._pump_once(fake.dispatch)
        fake.fail(fake.batches[0], WorkerCrashError("worker died"))
        assert not handle.done()  # parked in the backoff heap
        # close() wins: the queue is closed while the retry is parked.
        server._admission.close()
        started = time.monotonic()
        server._requeue_due(time.monotonic() + 2e6)
        with pytest.raises(ServingError, match="re-queued"):
            handle.result(timeout=10.0)
        # Failed fast through the race branch, not via a timeout.
        assert time.monotonic() - started < 5.0
        assert handle.done()

    def test_deadline_validation(self, fft_prototype, fft_input_pool):
        server = RumbaServer(prototype=fft_prototype.clone_shard())
        server.start()
        try:
            with pytest.raises(ConfigurationError, match="deadline"):
                server.submit(fft_input_pool[:8], deadline_s=0.0)
        finally:
            server.stop()
        with pytest.raises(ConfigurationError):
            RumbaServer(config=ServerConfig(
                retry=RetryConfig(default_deadline_s=-1.0)))
        with pytest.raises(ConfigurationError):
            RumbaServer(config=ServerConfig(
                retry=RetryConfig(max_retries=-1)))


class TestStartupHygiene:
    def test_partial_start_failure_leaks_nothing(self, fft_prototype,
                                                 monkeypatch):
        # Make the second worker's Process.start() explode: the pool must
        # dismantle the first worker (process *and* both shm rings) and
        # re-raise, leaving /dev/shm exactly as it was.
        before = _shm_listing()
        pool = ProcessWorkerPool(fft_prototype, n_workers=3)
        spawned = []
        original = pool._ctx.Process

        class _ExplodingProcess:
            def __init__(self, *args, **kwargs):
                if len(spawned) >= 1:
                    raise OSError("synthetic fork failure")
                proc = original(*args, **kwargs)
                spawned.append(proc)
                self._proc = proc

            def __getattr__(self, item):
                return getattr(self._proc, item)

        monkeypatch.setattr(pool._ctx, "Process", _ExplodingProcess)
        with pytest.raises(OSError, match="synthetic fork failure"):
            pool.start()
        assert pool.workers == []
        for proc in spawned:
            # Closed, which only an exited and reaped process can be.
            with pytest.raises(ValueError, match="closed"):
                proc.is_alive()
        assert _shm_listing() == before

    def test_restart_refused_before_start_and_after_stop(self,
                                                         fft_prototype):
        pool = ProcessWorkerPool(fft_prototype, n_workers=1)
        pool.start()
        worker = pool.workers[0]
        pool.stop()
        assert not pool.restart_worker(worker)


class TestDrain:
    def test_drain_flushes_in_flight_requests(self, fft_prototype,
                                              fft_input_pool):
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend="process", n_workers=2,
                batching=BatchingConfig(flush_interval_s=0.05,
                                        max_batch_requests=4),
            ),
        )
        server.start()
        handles = [server.submit(fft_input_pool[:16]) for _ in range(10)]
        server.drain(timeout=60.0)
        # Every request admitted before the drain completed.
        assert all(h.done() for h in handles)
        results = [h.result(timeout=1) for h in handles]
        assert len(results) == 10
        server.stop()


class TestBatchesInFlight:
    """What ``tests/serving/test_core.py`` shows path by path on the fake
    transport, on the real ones: completions, application errors, chaos
    faults and kills all report their batch back exactly once."""

    @pytest.mark.parametrize("backend,chaos", [
        ("thread", None),
        ("process", None),
        ("thread", "fail=0.5,seed=5"),
        ("process", "kill=20,fail=0.5,seed=5"),
    ])
    def test_drained_server_has_no_batch_in_flight(
        self, fft_prototype, fft_input_pool, backend, chaos
    ):
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend=backend, n_workers=2,
                batching=BatchingConfig(flush_interval_s=0.001,
                                        max_batch_requests=4),
                retry=RetryConfig(retry_backoff_s=0.01),
                chaos=ChaosConfig.parse(chaos) if chaos else None,
            ),
        )
        server.start()
        try:
            # Lists are staged into pooled buffers (the leak check's
            # subject); the odd width is an application error for
            # whichever batch it lands in.
            handles = [
                server.submit(fft_input_pool[:8].tolist()) for _ in range(40)
            ]
            handles.append(server.submit(np.ones((4, 5))))
            assert server.drain(timeout=60.0)
            assert all(h.done() for h in handles)
            assert any(h._exception is None for h in handles)
            assert handles[-1]._exception is not None
            assert server._admission.in_flight == 0
            assert server._bufpool.outstanding == 0
            stats = server.stats()
            assert sum(stats["flushes"].values()) >= 11
            if chaos:
                assert stats["retries"] > 0
        finally:
            server.stop()


class TestChaosSoak:
    @pytest.mark.parametrize("backend,spec", [
        ("process", "kill=8,seed=1"),
        ("process", "kill=8,fail=0.05,seed=2"),
        ("thread", "fail=0.15,seed=3"),
    ])
    def test_exactly_once_under_churn(self, fft_prototype, fft_input_pool,
                                      backend, spec):
        before = _shm_listing()
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend=backend, n_workers=2,
                batching=BatchingConfig(flush_interval_s=0.001),
                retry=RetryConfig(retry_backoff_s=0.01),
                chaos=ChaosConfig.parse(spec),
            ),
        )
        completed = failed = hung = 0
        with server:
            handles = [server.submit(fft_input_pool[:16]) for _ in range(60)]
            for handle in handles:
                try:
                    result = handle.result(timeout=60)
                    assert result.outputs.shape[0] == 16
                    completed += 1
                except ServingError:
                    if handle.done():
                        failed += 1
                    else:
                        hung += 1
            stats = server.stats()
        # The contract: all 60 accounted for, zero hangs, zero drops.
        assert hung == 0
        assert completed + failed == 60
        assert stats["chaos"] is not None
        if backend == "process":
            assert stats["worker_restarts"] >= stats["chaos"]["kills"] - 1
            assert _shm_listing() == before
