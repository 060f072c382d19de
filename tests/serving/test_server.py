"""End-to-end serving: parallel workers, recovery on the shard thread,
lifecycle, backpressure, and per-worker telemetry."""

import threading
import time

import numpy as np
import pytest

from repro.core.stream import DriftDetector
from repro.errors import OverloadedError, ServingError
from repro.observability import MetricsRegistry
from repro.serving import (
    BackpressureConfig,
    BackpressureController,
    BatchingConfig,
    RumbaServer,
    ServerConfig,
)
from repro.serving.server import WorkerShard


def _server(prototype, registry=None, **config):
    config.setdefault("n_workers", 2)
    config.setdefault("batching", BatchingConfig(
        max_batch_requests=4, flush_interval_s=0.002,
    ))
    return RumbaServer(
        prototype=prototype.clone_shard(), config=ServerConfig(**config),
        registry=registry,
    )


class TestEndToEnd:
    def test_concurrent_requests_across_workers(self, fft_prototype, fft_input_pool):
        registry = MetricsRegistry()
        server = _server(fft_prototype, registry=registry)
        with server:
            # Paced arrivals: the hot path drains a one-shot burst of 48
            # small requests within a single GIL scheduling quantum on a
            # 1-core host, before the second worker thread ever runs.
            # Spreading the submissions over a few quanta keeps this a
            # test of load spreading rather than of thread start latency.
            handles = []
            for i in range(48):
                handles.append(
                    server.submit(fft_input_pool[i * 16:(i + 1) * 16])
                )
                if i % 8 == 7:
                    time.sleep(0.005)
            results = [h.result(timeout=30.0) for h in handles]
        assert len(results) == 48
        assert all(r.outputs.shape == (16, 2) for r in results)
        assert all(np.isfinite(r.outputs).all() for r in results)
        assert all(r.latency_s >= r.queue_wait_s >= 0.0 for r in results)
        # Work actually spread across the pool: every worker shard ran
        # invocations, visible both on the shards and in the per-worker
        # metric series (the PR 1 telemetry registry).
        assert all(s.system.total_invocations > 0 for s in server.shards)
        family = registry.get("rumba_invocations_total")
        series = {labels["worker"]: child.value
                  for labels, child in family.series()}
        assert set(series) == {"w0", "w1"}
        assert all(count > 0 for count in series.values())
        served = registry.get("rumba_serve_requests_total")
        outcomes = {labels["outcome"]: child.value
                    for labels, child in served.series()}
        assert outcomes["accepted"] == 48
        assert outcomes["completed"] == 48

    def test_results_preserve_request_rows(self, fft_prototype, fft_input_pool):
        # Requests of different sizes in one batch come back with their
        # own row counts, in submission slots.
        server = _server(fft_prototype, n_workers=1)
        sizes = [1, 7, 3, 12, 5]
        with server:
            handles = [
                server.submit(fft_input_pool[:n]) for n in sizes
            ]
            results = [h.result(timeout=30.0) for h in handles]
        assert [r.n_elements for r in results] == sizes

    def test_submit_wait_roundtrip(self, fft_prototype, fft_input_pool):
        with _server(fft_prototype) as server:
            result = server.submit_wait(fft_input_pool[:8], timeout=30.0)
        assert result.outputs.shape == (8, 2)
        assert 0.0 <= result.fix_fraction <= 1.0


class TestLifecycle:
    def test_submit_requires_running(self, fft_prototype, fft_input_pool):
        server = _server(fft_prototype)
        with pytest.raises(ServingError):
            server.submit(fft_input_pool[:4])
        with server:
            server.submit_wait(fft_input_pool[:4], timeout=30.0)
        with pytest.raises(ServingError):
            server.submit(fft_input_pool[:4])
        assert server.state == "stopped"

    def test_drain_completes_inflight(self, fft_prototype, fft_input_pool):
        server = _server(fft_prototype)
        server.start()
        handles = [server.submit(fft_input_pool[:8]) for _ in range(12)]
        assert server.drain(timeout=30.0)
        assert all(h.done() for h in handles)
        server.stop()

    def test_stats_shape(self, fft_prototype, fft_input_pool):
        with _server(fft_prototype) as server:
            server.submit_wait(fft_input_pool[:8], timeout=30.0)
            stats = server.stats()
        assert stats["app"] == "fft"
        assert stats["scheme"] == "treeErrors"
        assert stats["inflight_requests"] == 0
        assert stats["degradation_level"] == 0
        assert stats["drifted"] is False
        assert len(stats["workers"]) == 2
        for worker in stats["workers"]:
            assert {"worker", "batches", "threshold", "drifted"} <= set(worker)

    def test_empty_request_rejected(self, fft_prototype):
        with _server(fft_prototype) as server:
            from repro.errors import ConfigurationError

            with pytest.raises(ConfigurationError):
                server.submit(np.empty((0, 1)))

    def test_forced_backend_ids_checked_at_submit(self, fft_prototype,
                                                  fft_input_pool):
        """A forced member id outside ``[0, n_members)`` is refused at
        admission: ``5`` and ``-1`` name no member, and an int64 ``256``
        must not wrap into member 0 on its way to int8."""
        from repro.approx.ensemble import EnsembleSpec
        from repro.core.offline import prepare_system
        from repro.errors import ConfigurationError

        rows = fft_input_pool[:4]
        with _server(fft_prototype) as server:
            with pytest.raises(ConfigurationError, match="ensemble"):
                server.submit(rows, backend_ids=np.zeros(4, dtype=np.int8))
        ensemble = prepare_system("fft", scheme="treeErrors", seed=0,
                                  ensemble=EnsembleSpec())
        with _server(ensemble) as server:
            for bad in (5, -1, np.int64(256)):
                ids = np.zeros(4, dtype=np.int64)
                ids[2] = bad
                with pytest.raises(ConfigurationError, match="outside"):
                    server.submit(rows, backend_ids=ids)
            forced = server.submit(rows, backend_ids=[0, 1, 2, 0])
            result = forced.result(timeout=30.0)
        assert result.outputs.shape == (4, 2)
        assert server.stats()["inflight_requests"] == 0


class TestOneExecutionModel:
    """A thread worker runs an invocation whole, as a worker process
    does: the shard thread that accelerated a batch recovers it, and a
    batch has one owner from ``take()`` to ``on_complete``."""

    def test_a_thread_server_is_its_workers_plus_the_retry_thread(
        self, fft_prototype, fft_input_pool
    ):
        before = set(threading.enumerate())
        with _server(fft_prototype, n_workers=2) as server:
            server.submit_wait(fft_input_pool[:8], timeout=30.0)
            names = sorted(
                t.name for t in set(threading.enumerate()) - before
            )
        assert names == [
            "rumba-serve-retry", "rumba-serve-w0", "rumba-serve-w1",
        ]

    def test_recovery_failure_is_reported_once_with_the_lease_released(
        self, fft_prototype, fft_input_pool
    ):
        server = _server(
            fft_prototype, n_workers=1,
            batching=BatchingConfig(max_batch_requests=4,
                                    flush_interval_s=5.0),
        )
        server.prepare()
        system = server.shards[0].system
        entered, gate = threading.Event(), threading.Event()
        ran_on, failures = [], []
        recover = system.recovery.recover

        def gated_then_broken(inputs, approx, bits):
            ran_on.append(threading.current_thread().name)
            if len(ran_on) > 1:
                raise ValueError("recovery exploded")
            entered.set()
            assert gate.wait(timeout=30.0)
            return recover(inputs, approx, bits)

        system.recovery.recover = gated_then_broken
        report = server._transport._on_failure

        def counted(batch, error, worker):
            failures.append((len(batch.requests), worker))
            report(batch, error, worker)

        server._transport._on_failure = counted
        with server:
            first = server.submit(fft_input_pool[:8])
            assert entered.wait(timeout=30.0)
            # The one worker is inside recovery, so these three wait and
            # then leave as one batch — a leased concat buffer.
            rest = [server.submit(fft_input_pool[:8]) for _ in range(3)]
            leases = server._bufpool.leases
            gate.set()
            assert first.result(timeout=30.0).n_elements == 8
            for handle in rest:
                with pytest.raises(ValueError, match="recovery exploded"):
                    handle.result(timeout=30.0)
            assert server._bufpool.leases == leases + 1
            assert server._bufpool.outstanding == 0
            assert server._admission.in_flight == 0
            assert server.stats()["retries"] == 0
        assert failures == [(3, "w0")]
        # The thread that accelerated each batch recovered it.
        assert ran_on == ["rumba-serve-w0", "rumba-serve-w0"]


class TestBackpressure:
    def test_bounded_queues_and_degradation(self, fft_prototype, fft_input_pool):
        """Overload must produce shedding + threshold degradation, never
        unbounded queues — and quality must come back once it clears."""
        registry = MetricsRegistry()
        server = _server(
            fft_prototype,
            registry=registry,
            n_workers=2,
            batching=BatchingConfig(
                max_batch_requests=1, flush_interval_s=0.002,
                admission_capacity=6,
            ),
            backpressure=BackpressureConfig(
                high_watermark=1, low_watermark=0,
            ),
        )
        server.prepare()
        # Make CPU recovery artificially slow so arrivals outrun the
        # workers — the keep-up failure the paper warns about.  With
        # recovery on the shard thread that shows as a growing admission
        # queue, which is what the backlog counts.
        for shard in server.shards:
            shard.system.recovery.verify = False
            original = shard.system.recovery.exact_kernel

            def slow_kernel(x, _orig=original):
                time.sleep(0.01)
                return _orig(x)

            shard.system.recovery.exact_kernel = slow_kernel
        baseline_threshold = server.shards[0].system.tuner.threshold

        server.start()
        handles = []
        shed = 0
        for _ in range(60):
            try:
                handles.append(server.submit(fft_input_pool[:4]))
            except OverloadedError:
                shed += 1
        for handle in handles:
            handle.result(timeout=60.0)
        stats = server.stats()
        peak_level = server.controller.level

        # Bounded admission shed load instead of queueing unboundedly.
        assert shed > 0
        assert stats["requests_shed"] == shed
        assert stats["recovery_backlog"] == 0  # everything drained
        # Backpressure raised the detection threshold at least once.
        assert server.controller.degrade_events > 0
        peak_threshold = max(
            r.detection.threshold
            for s in server.shards for r in s.system.records
        )
        assert peak_threshold > baseline_threshold
        # And the degradation is visible through the metrics registry.
        gauge = registry.get("rumba_serve_degradation_level")
        assert gauge is not None

        # The overload is over: a trickle of lone requests (backlog 1
        # while running, 0 when done) relaxes one step per completion.
        for _ in range(peak_level + 1):
            server.submit_wait(fft_input_pool[:4], timeout=60.0)
        assert server.controller.level == 0
        assert all(
            s.system.tuner.threshold == baseline_threshold
            for s in server.shards
        )
        # The last batch ran at level 0: at the tuner's own threshold.
        last = max(
            (r for s in server.shards for r in s.system.records),
            key=lambda r: r.stages[0][1],
        )
        assert last.level == 0
        assert last.detection.threshold == baseline_threshold
        server.stop()

    def test_controller_hysteresis_and_reset(self, fft_prototype,
                                             fft_input_pool):
        shard = fft_prototype.clone_shard()
        start = shard.tuner.threshold
        x = fft_input_pool[:16]
        controller = BackpressureController(
            high_watermark=4, low_watermark=1, max_level=2,
        )
        assert controller.update(10) == +1
        assert controller.update(10) == +1
        assert controller.update(10) == 0  # capped at max_level
        assert controller.level == 2
        record = shard.run_invocation(x, level=controller.level)
        assert record.detection.threshold == pytest.approx(start * 2.25)
        assert controller.update(3) == 0   # between watermarks: hold
        assert controller.update(1) == -1
        controller.reset()
        assert controller.level == 0
        assert controller.relax_events == 2
        record = shard.run_invocation(x, level=controller.level)
        assert record.detection.threshold == start
        assert shard.tuner.threshold == start


class TestLeavingDegradation:
    """ROADMAP item 10's TOQ contract under backpressure: while degraded
    the threshold may exceed the budget, and once the controller is back
    at level 0 a batch runs at the tuner's own threshold, bit for bit."""

    WALKS = 200

    @pytest.fixture(scope="class", params=[0.85, 0.99])
    def toq_prototype(self, request):
        from repro.core import RumbaConfig, prepare_system

        return prepare_system("fft", config=RumbaConfig(
            scheme="treeErrors", target_output_quality=request.param,
        ))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_seeded_walks_end_on_the_tuner_threshold(
        self, toq_prototype, fft_input_pool, backend
    ):
        from repro.core.tuner import DEGRADE_FACTOR

        base = toq_prototype.tuner.threshold
        registry = MetricsRegistry()
        server = _server(
            toq_prototype, registry=registry, n_workers=1, backend=backend,
            batching=BatchingConfig(max_batch_requests=1,
                                    flush_interval_s=0.0),
        )
        x = fft_input_pool[:8]
        rng = np.random.default_rng(round(base * 1000))
        with server:
            controller = server.controller
            gauge = registry.get("rumba_serve_worker_threshold").labels(
                worker=server.shards[0].name, **server._labels
            )

            def run_batch():
                """The level the batch ran at and the threshold it
                reported (the gauge is set before the handle resolves)."""
                server.submit_wait(x, timeout=60.0)
                worker = server.stats()["workers"][0]
                return worker["degradation_level"], gauge.value

            for _ in range(self.WALKS):
                for _ in range(rng.integers(2, 41)):
                    controller.update(100 if rng.random() < 0.5 else 0)
                    if rng.random() < 0.2:
                        # A batch mid-walk runs at the level it is taken
                        # at.  The previous batch's report may still relax
                        # (never raise) the level after its handle resolved.
                        taken = controller.level
                        level, threshold = run_batch()
                        assert level in (taken, taken - 1)
                        assert threshold == pytest.approx(
                            base * DEGRADE_FACTOR ** level
                        )
                while controller.level:
                    controller.update(0)
                assert run_batch() == (0, base)


class TestRecordRetention:
    def test_shards_keep_a_bounded_record_window(self, fft_prototype,
                                                 fft_input_pool, monkeypatch):
        """Regression: shards retained every InvocationRecord for the
        life of the server (0.37 MB per 1000 requests on the ladder)."""
        from repro.serving import transport

        monkeypatch.setattr(transport, "SHARD_RECORD_WINDOW", 8)
        server = _server(
            fft_prototype, n_workers=1,
            batching=BatchingConfig(max_batch_requests=1,
                                    flush_interval_s=0.0),
        )
        with server:
            for _ in range(30):
                server.submit_wait(fft_input_pool[:4], timeout=30.0)
            shard = server.shards[0]
            assert shard.system.total_invocations == 30
            assert len(shard.system.records) <= 8
            assert server.stats()["workers"][0]["invocations"] == 30


class TestDrift:
    def test_worker_shard_flags_drift(self):
        import types

        shard = WorkerShard(
            name="w0",
            system=types.SimpleNamespace(telemetry=None),
            drift=DriftDetector(
                calibration_invocations=2, tolerance_sigmas=1.0,
                min_band=0.01, max_band=0.02, smoothing=1.0,
            ),
        )
        assert not shard.observe_drift(0.10)
        assert not shard.observe_drift(0.10)  # calibration done
        assert shard.observe_drift(0.90)
        assert shard.drifted
        assert shard.drift_flags == 1
