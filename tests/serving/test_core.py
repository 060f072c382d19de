"""The serving core's retry / deadline / exactly-once logic, driven
through a fake transport: every step below is a direct call, so there is
no sleep, worker thread, or worker process to race against.  Backoffs
are far longer than the test, which keeps the server's own retry thread
idle; ``_requeue_due`` is called with a clock reading past them."""

import time

import pytest

from repro.errors import ServingError, WorkerCrashError
from repro.observability.reqtrace import RequestTrace
from tests.observability.test_reqtrace import is_monotonic, stage_names
from repro.serving import BackpressureConfig

FAR = 1e6  # seconds: a backoff / deadline no test run reaches


def _dispatch_one(server, fake):
    assert server._pump_once(fake.dispatch)
    return fake.batches[-1]


class TestCompletion:
    def test_batch_resolves_each_request_exactly_once(self, fake_server,
                                                      fft_input_pool):
        server, fake = fake_server()
        handles = [server.submit(fft_input_pool[:n]) for n in (3, 5)]
        batch = _dispatch_one(server, fake)
        assert [r.n_elements for r in batch.requests] == [3, 5]
        assert server.stats()["recovery_backlog"] == 1
        fake.complete(batch)
        results = [h.result(timeout=0) for h in handles]
        assert [r.n_elements for r in results] == [3, 5]
        assert all(r.worker == "f0" and r.fix_fraction == 0.25
                   for r in results)
        stats = server.stats()
        assert stats["inflight_requests"] == 0
        assert stats["recovery_backlog"] == 0
        assert stats["workers"][0]["batches"] == 1
        assert stats["workers"][0]["elements"] == 8

    def test_application_error_fails_without_retry(self, fake_server,
                                                   fft_input_pool):
        server, fake = fake_server(retry_backoff_s=FAR,
                                   default_deadline_s=2 * FAR)
        handle = server.submit(fft_input_pool[:4])
        fake.fail(_dispatch_one(server, fake), ValueError("bad kernel"))
        with pytest.raises(ValueError, match="bad kernel"):
            handle.result(timeout=0)
        assert server.stats()["retries"] == 0

    def test_dispatch_exception_goes_through_retry_policy(self, fake_server,
                                                          fft_input_pool):
        server, fake = fake_server(max_retries=0)
        handle = server.submit(fft_input_pool[:4])

        def exploding(batch):
            raise WorkerCrashError("no live worker")

        assert server._pump_once(exploding)
        with pytest.raises(ServingError, match="retry bound 0"):
            handle.result(timeout=0)


class TestBacklog:
    """The one backlog, computed by the core from what its admission
    queue holds: batches taken and not reported back, plus the batches
    the waiting requests would form.  The no-sleep twin of
    ``test_server.py::TestBackpressure::test_bounded_queues_and_degradation``."""

    def test_waiting_and_in_flight_batches_step_the_controller(
        self, fake_server, fft_input_pool
    ):
        server, fake = fake_server(backpressure=BackpressureConfig(
            high_watermark=2, low_watermark=1,
        ))
        controller = server.controller

        def backlog():
            value = server.stats()["recovery_backlog"]
            assert value == server._admission.backlog()
            return value

        # 20 undispatched requests at 8 per batch: ceil(20 / 8) batches.
        handles = [server.submit(fft_input_pool[:2]) for _ in range(20)]
        assert backlog() == 3
        assert controller.level == 0  # nothing has observed it yet
        server._observe_backlog()
        assert controller.level == 1
        gauge = server.registry.get("rumba_serve_recovery_backlog")
        assert gauge.labels(**server._labels).value == 3

        # A take moves a batch from waiting to in flight: the backlog
        # stays, and the controller is not consulted.
        batches = []
        for _ in range(3):
            batches.append(_dispatch_one(server, fake))
            assert backlog() == 3
        assert controller.level == 1
        assert [len(b.requests) for b in batches] == [8, 8, 4]
        # Dispatched at the degraded level, which rides on the batch.
        assert [b.level for b in batches] == [1, 1, 1]

        # One observation per batch reported back: 2 left holds (between
        # the watermarks), 1 and 0 relax a step each.
        server._observe_backlog()
        assert controller.level == 2
        for batch, (left, level) in zip(batches, [(2, 2), (1, 1), (0, 0)]):
            fake.complete(batch)
            assert backlog() == left
            assert controller.level == level
        assert all(h.result(timeout=0).degraded for h in handles)
        assert controller.degrade_events == 2
        assert controller.relax_events == 2
        assert gauge.labels(**server._labels).value == 0

    def test_a_failed_batch_is_an_observation_too(self, fake_server,
                                                  fft_input_pool):
        server, fake = fake_server(
            backpressure=BackpressureConfig(high_watermark=1,
                                            low_watermark=0),
            max_retries=0,
        )
        handles = [server.submit(fft_input_pool[:2]) for _ in range(20)]
        doomed = _dispatch_one(server, fake)
        fake.fail(doomed, ValueError("bad kernel"))
        assert server.stats()["recovery_backlog"] == 2
        assert server.controller.level == 1
        for handle in handles[:8]:
            with pytest.raises(ValueError):
                handle.result(timeout=0)


class TestWorkerReport:
    """What the core reads out of a worker's batch report, whichever
    transport carried it: the loop series of that worker and the
    worker's side of each sampled request's waterfall."""

    @staticmethod
    def _value(server, name, **extra):
        labels = dict(app=server.app_name, scheme=server.scheme,
                      worker="f0", **extra)
        return server.registry.get(name).labels(**labels).value

    def test_record_chain_feeds_telemetry_and_the_trace(self, fake_server,
                                                        fft_input_pool,
                                                        fft_prototype):
        """No system lives in the core's process behind this transport —
        as behind the process one — and the worker's series still come
        out of its report."""
        server, fake = fake_server()
        assert server.shards[0].system is None
        record = fft_prototype.clone_shard().run_invocation(
            fft_input_pool[:8], measure_quality=False
        )
        trace = RequestTrace()
        handle = server.submit(fft_input_pool[:8], trace=trace)
        batch = _dispatch_one(server, fake)
        # Re-stamp the record's chain as if the worker finished it just
        # now (a reading before the dispatch stamp is clamped to it).
        shift = time.monotonic() - record.stages[-1][1]
        stages = [(stage, at + shift) for stage, at in record.stages]
        fake.complete(batch, stages=stages, **record.facts())
        assert handle.result(timeout=0).fix_fraction == record.fix_fraction
        assert self._value(server, "rumba_invocations_total") == 1
        assert self._value(server, "rumba_fires_total") == \
            record.detection.n_fired
        assert self._value(server, "rumba_recovered_total") == \
            record.recovery.n_recovered
        for phase in ("accelerate", "detect", "recover", "tune"):
            assert self._value(server, "rumba_phase_spans_total",
                               phase=phase) == 1
            assert self._value(server, "rumba_phase_seconds_total",
                               phase=phase) > 0
        assert stage_names(trace) == [
            "admit", "dequeue", "dispatch",
            "invoke", "compute", "detect", "recover", "tune",
            "complete",
        ]
        assert is_monotonic(trace)


class TestRetryBudget:
    def test_crash_requeues_until_the_retry_bound(self, fake_server,
                                                  fft_input_pool):
        server, fake = fake_server(max_retries=1, retry_backoff_s=FAR,
                                   default_deadline_s=10 * FAR)
        handle = server.submit(fft_input_pool[:4])
        fake.fail(_dispatch_one(server, fake), WorkerCrashError("died"))
        assert not handle.done()
        assert server.stats()["retry_queue_depth"] == 1
        # Not due yet: the heap keeps it.
        server._requeue_due(time.monotonic())
        assert server.stats()["retry_queue_depth"] == 1
        server._requeue_due(time.monotonic() + 2 * FAR)
        assert server.stats()["retry_queue_depth"] == 0
        retried = _dispatch_one(server, fake)
        assert retried.requests[0].attempts == 1
        fake.fail(retried, WorkerCrashError("died again"))
        with pytest.raises(ServingError, match="after 2 attempts"):
            handle.result(timeout=0)
        stats = server.stats()
        assert stats["retries"] == 1
        assert stats["inflight_requests"] == 0

    def test_retried_request_completes(self, fake_server, fft_input_pool):
        server, fake = fake_server(retry_backoff_s=FAR,
                                   default_deadline_s=10 * FAR)
        handle = server.submit(fft_input_pool[:4])
        fake.fail(_dispatch_one(server, fake), WorkerCrashError("died"))
        server._requeue_due(time.monotonic() + 2 * FAR)
        fake.complete(_dispatch_one(server, fake))
        assert handle.result(timeout=0).n_elements == 4

    def test_backoff_past_the_deadline_fails_at_once(self, fake_server,
                                                     fft_input_pool):
        server, fake = fake_server(max_retries=100, retry_backoff_s=FAR)
        handle = server.submit(fft_input_pool[:4], deadline_s=1.0)
        fake.fail(_dispatch_one(server, fake), WorkerCrashError("died"))
        with pytest.raises(ServingError, match="deadline budget exhausted"):
            handle.result(timeout=0)
        assert server.stats()["retry_queue_depth"] == 0


class TestBatchesInFlight:
    """The admission queue's work-conserving rule counts batches taken
    and not yet reported back; whatever happens to a batch, the core
    reports it exactly once, so the count (and every pooled buffer)
    is back to zero once the server has drained."""

    @staticmethod
    def _submit_pooled(server, fft_input_pool, n=4):
        # A list is staged into a pooled buffer, so the leak check below
        # has something to find.
        handle = server.submit(fft_input_pool[:n].tolist())
        assert server._bufpool.outstanding > 0
        return handle

    @staticmethod
    def _assert_closed(server, batches=1):
        assert server.drain(timeout=1.0)
        assert server._admission.in_flight == 0
        assert server._bufpool.outstanding == 0
        # One flush reason counted per batch dequeued.
        assert sum(server.stats()["flushes"].values()) == batches

    def test_success(self, fake_server, fft_input_pool):
        server, fake = fake_server()
        handle = self._submit_pooled(server, fft_input_pool)
        batch = _dispatch_one(server, fake)
        assert server._admission.in_flight == 1
        fake.complete(batch)
        assert handle.result(timeout=0).n_elements == 4
        self._assert_closed(server)

    def test_application_error(self, fake_server, fft_input_pool):
        server, fake = fake_server()
        handle = self._submit_pooled(server, fft_input_pool)
        fake.fail(_dispatch_one(server, fake), ValueError("bad kernel"))
        assert handle.done()
        self._assert_closed(server)

    def test_crash_retry_then_success(self, fake_server, fft_input_pool):
        server, fake = fake_server(retry_backoff_s=FAR,
                                   default_deadline_s=10 * FAR)
        handle = self._submit_pooled(server, fft_input_pool)
        fake.fail(_dispatch_one(server, fake), WorkerCrashError("died"))
        # Parked in the retry heap: no batch is in flight meanwhile.
        assert server._admission.in_flight == 0
        server._requeue_due(time.monotonic() + 2 * FAR)
        fake.complete(_dispatch_one(server, fake))
        assert handle.result(timeout=0).n_elements == 4
        self._assert_closed(server, batches=2)

    @pytest.mark.parametrize("retry,why", [
        ({"max_retries": 0}, "retry bound"),
        ({"max_retries": 100, "default_deadline_s": 1.0},
         "deadline budget"),
    ])
    def test_retries_exhausted(self, fake_server, fft_input_pool,
                               retry, why):
        server, fake = fake_server(retry_backoff_s=FAR, **retry)
        handle = self._submit_pooled(server, fft_input_pool)
        fake.fail(_dispatch_one(server, fake), WorkerCrashError("died"))
        with pytest.raises(ServingError, match=why):
            handle.result(timeout=0)
        self._assert_closed(server)

    def test_dispatch_that_raises(self, fake_server, fft_input_pool):
        server, fake = fake_server()
        handle = self._submit_pooled(server, fft_input_pool)

        def exploding(batch):
            raise RuntimeError("ring full")

        assert server._pump_once(exploding)
        with pytest.raises(RuntimeError, match="ring full"):
            handle.result(timeout=0)
        self._assert_closed(server)

    def test_requeue_after_close(self, fake_server, fft_input_pool):
        server, fake = fake_server(retry_backoff_s=FAR,
                                   default_deadline_s=10 * FAR)
        handle = self._submit_pooled(server, fft_input_pool)
        fake.fail(_dispatch_one(server, fake), WorkerCrashError("died"))
        server._admission.close()
        server._requeue_due(time.monotonic() + 2 * FAR)
        with pytest.raises(ServingError, match="re-queued"):
            handle.result(timeout=0)
        self._assert_closed(server)
