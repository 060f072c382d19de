"""Admission queue and batch formation semantics."""

import threading
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ServingError
from repro.serving import AdmissionQueue, ServeRequest, concat_inputs, split_outputs
from repro.serving import batching
from repro.serving.batching import FLUSH_REASONS, flush_reason


def _request(request_id=0, n=4, width=1, at=None):
    return ServeRequest(
        request_id=request_id,
        inputs=np.ones((n, width)),
        submitted_at=time.monotonic() if at is None else at,
    )


def _wait_until(condition, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)


class TestAdmissionQueue:
    def test_batch_flushes_at_max_size(self):
        queue = AdmissionQueue(
            capacity=16, max_batch_requests=3, flush_interval_s=60.0
        )
        for i in range(5):
            assert queue.offer(_request(i))
        batch = queue.take_batch()
        assert [r.request_id for r in batch] == [0, 1, 2]
        # Two leftovers are below max size; with a long flush interval
        # they only come out once the queue is closed.
        queue.close()
        assert [r.request_id for r in queue.take_batch()] == [3, 4]
        assert queue.take_batch() is None

    def test_deadline_flushes_partial_batch(self):
        queue = AdmissionQueue(
            capacity=16, max_batch_requests=100, flush_interval_s=0.02
        )
        # The only worker takes a batch and keeps it: from here on a
        # partial batch can leave by the timer alone.
        queue.offer(_request(0))
        assert queue.take()[0] == "idle"
        queue.offer(_request(7))
        started = time.monotonic()
        reason, batch = queue.take()
        waited = time.monotonic() - started
        assert reason == "timer"
        assert [r.request_id for r in batch] == [7]
        # Flushed by the deadline, not by size — neither before it nor
        # busy-waiting far past it.
        assert 0.015 < waited < 1.0

    def test_idle_worker_takes_a_lone_request_at_once(self):
        queue = AdmissionQueue(
            capacity=16, max_batch_requests=100, flush_interval_s=60.0,
            workers=2,
        )
        for request_id in (1, 2):
            queue.offer(_request(request_id))
            reason, batch = queue.take()
            assert reason == "idle"
            assert [r.request_id for r in batch] == [request_id]
        assert queue.in_flight == 2
        # Both workers busy: the next request waits for one of them (or
        # the 60 s timer), and a report is what releases it.
        queue.offer(_request(3))
        got = []
        thread = threading.Thread(target=lambda: got.append(queue.take()),
                                  daemon=True)
        thread.start()
        thread.join(timeout=0.05)
        assert thread.is_alive()
        queue.batch_done()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got[0][0] == "idle"
        assert [r.request_id for r in got[0][1]] == [3]

    @staticmethod
    def _two_parked_consumers(queue):
        """Two threads blocked in ``take()`` with the only worker busy."""
        queue.offer(_request(99))
        assert queue.take()[0] == "idle"
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(queue.take()),
                             daemon=True)
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        return got, threads

    @staticmethod
    def _ids(got):
        return [(reason, [r.request_id for r in batch])
                for reason, batch in got]

    def test_a_filled_batch_wakes_exactly_one_consumer(self):
        # offer() notifies on the first arrival and on the one that
        # fills the batch, nothing in between: with every worker busy
        # and a 60 s timer only ``size`` can release anything.
        queue = AdmissionQueue(
            capacity=16, max_batch_requests=4, flush_interval_s=60.0
        )
        got, threads = self._two_parked_consumers(queue)
        try:
            for i in range(4):
                # Both consumers parked (again, after the first arrival
                # woke one to hold the timer) before the next one lands.
                _wait_until(lambda: len(queue._cond._waiters) == 2)
                assert not got
                queue.offer(_request(i))
            _wait_until(lambda: got)
            assert self._ids(got) == [("size", [0, 1, 2, 3])]
        finally:
            queue.close()
            for thread in threads:
                thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)
        assert got[1:] == [None]

    def test_leftovers_of_a_burst_wake_the_next_consumer(self):
        # A burst of two batches' worth lands before the consumer woken
        # by the fill gets the lock: the second batch's fill notified
        # nobody, so the first taker has to pass the wake on.
        queue = AdmissionQueue(
            capacity=16, max_batch_requests=2, flush_interval_s=60.0
        )
        got, threads = self._two_parked_consumers(queue)
        try:
            _wait_until(lambda: len(queue._cond._waiters) == 2)
            queue.offer(_request(0))
            _wait_until(lambda: len(queue._cond._waiters) == 2)
            with queue._cond:
                for i in (1, 2, 3):
                    queue.offer(_request(i))
            _wait_until(lambda: len(got) == 2)
            assert self._ids(got) == [("size", [0, 1]), ("size", [2, 3])]
        finally:
            queue.close()
            for thread in threads:
                thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)

    def test_full_queue_sheds(self):
        queue = AdmissionQueue(capacity=2, max_batch_requests=2)
        assert queue.offer(_request(0))
        assert queue.offer(_request(1))
        assert not queue.offer(_request(2))
        assert queue.shed == 1
        assert queue.offered == 3

    def test_requeue_after_close_raises(self):
        # Regression: requeue() on a closed queue must raise the typed
        # error rather than silently dropping the retry — a dropped
        # retry leaves the submitter blocked until its deadline runs out.
        queue = AdmissionQueue()
        queue.close()
        with pytest.raises(ServingError, match="closed"):
            queue.requeue(_request(1))

    def test_requeue_races_close_without_losing_requests(self):
        # Many in-flight retries race one close(): every requeue either
        # lands in the queue (drainable afterwards) or raises the typed
        # ServingError — never a silent drop, never a hang.
        for attempt in range(10):
            queue = AdmissionQueue(capacity=64, max_batch_requests=64,
                                   flush_interval_s=60.0)
            landed = []
            rejected = []
            barrier = threading.Barrier(9)

            def requeue_one(request_id):
                request = _request(request_id)
                barrier.wait()
                try:
                    queue.requeue(request)
                    landed.append(request_id)
                except ServingError:
                    rejected.append(request_id)

            threads = [
                threading.Thread(target=requeue_one, args=(i,))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            queue.close()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)
            drained = queue.drain_remaining()
            # take_batch path also empty after drain; accounting closes.
            assert len(landed) + len(rejected) == 8
            assert sorted(r.request_id for r in drained) == sorted(landed)

    def test_offer_after_close_raises(self):
        queue = AdmissionQueue()
        queue.close()
        with pytest.raises(ServingError):
            queue.offer(_request())

    def test_take_batch_wakes_on_arrival(self):
        queue = AdmissionQueue(
            capacity=8, max_batch_requests=1, flush_interval_s=10.0
        )
        got = []

        def consume():
            got.append(queue.take_batch())

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        queue.offer(_request(9))
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        # max_batch_requests=1 means a single arrival is already a full
        # batch — no deadline wait.
        assert [r.request_id for r in got[0]] == [9]

    def test_validations(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ConfigurationError):
            AdmissionQueue(max_batch_requests=0)
        with pytest.raises(ConfigurationError):
            AdmissionQueue(flush_interval_s=-1.0)


class _WouldBlock(Exception):
    """take() reached its condition wait: no batch was due."""


def _would_block(timeout=None):
    raise _WouldBlock


#: One step of a queue's life: offer a burst, try to take, report a
#: batch back, or let time pass.
_STEPS = st.one_of(
    st.tuples(st.just("offer"), st.integers(1, 6)),
    st.tuples(st.just("take"), st.just(0)),
    st.tuples(st.just("done"), st.just(0)),
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.4, 1.0, 2.5])),
)


class TestFlushRule:
    """The flush decision against a list model: a fake clock, a condition
    wait that raises instead of sleeping — no threads, no sleeps."""

    MAX_BATCH, INTERVAL, CAPACITY = 4, 1.0, 10

    @settings(max_examples=300, deadline=None)
    @given(workers=st.integers(1, 3), steps=st.lists(_STEPS, max_size=60))
    def test_queue_against_a_list_model(self, workers, steps):
        clock = SimpleNamespace(now=100.0, monotonic=lambda: clock.now)
        with mock.patch.object(batching, "time", clock):
            self._run(workers, steps, clock)

    def _run(self, workers, steps, clock):
        queue = AdmissionQueue(
            capacity=self.CAPACITY, max_batch_requests=self.MAX_BATCH,
            flush_interval_s=self.INTERVAL, workers=workers,
        )
        queue._cond.wait = _would_block
        model, admitted, taken, in_flight = [], [], [], 0
        for op, arg in steps + [("close", 0)] + [("take", 0)] * 4:
            if op == "offer":
                for _ in range(arg):
                    request = _request(len(admitted), at=clock.now)
                    if queue.offer(request):
                        admitted.append(request.request_id)
                        model.append(request)
                    else:
                        assert len(model) == self.CAPACITY
            elif op == "tick":
                clock.now += arg
            elif op == "close":
                queue.close()
            elif op == "done":
                if in_flight:
                    queue.batch_done()
                    in_flight -= 1
            else:
                try:
                    outcome = queue.take()
                except _WouldBlock:
                    # Not due: nothing waiting, or a partial batch that
                    # no idle worker could run, still inside its timer.
                    assert not queue.is_closed
                    assert len(model) < self.MAX_BATCH
                    if model:
                        assert in_flight >= workers
                        assert clock.now - model[0].submitted_at < self.INTERVAL
                    continue
                if outcome is None:
                    assert queue.is_closed and not model
                    continue
                reason, batch = outcome
                ids = [r.request_id for r in batch]
                # FIFO, non-empty, bounded.
                assert ids == [r.request_id for r in model[:self.MAX_BATCH]]
                assert ids
                assert {
                    "size": len(model) >= self.MAX_BATCH,
                    "close": queue.is_closed,
                    "idle": in_flight < workers,
                    "timer": clock.now - batch[0].submitted_at >= self.INTERVAL,
                }[reason]
                del model[:len(batch)]
                taken += ids
                in_flight += 1
            assert queue.in_flight == in_flight
            assert len(queue) == len(model)
        # Nothing lost, nothing duplicated, order kept; and the count
        # returns to zero once every batch taken was reported.
        assert taken == admitted
        for _ in range(in_flight):
            queue.batch_done()
        assert queue.in_flight == 0

    @given(
        n_pending=st.integers(0, 12), waited=st.floats(0.0, 3.0),
        in_flight=st.integers(0, 4), workers=st.integers(1, 3),
        closed=st.booleans(),
    )
    def test_reason_is_the_first_that_applies(self, n_pending, waited,
                                              in_flight, workers, closed):
        reason = flush_reason(
            n_pending, 50.0, 50.0 + waited, in_flight, workers, closed,
            self.MAX_BATCH, self.INTERVAL,
        )
        applies = {
            "size": n_pending >= self.MAX_BATCH,
            "close": closed,
            "idle": in_flight < workers,
            "timer": waited >= self.INTERVAL,
        }
        due = [r for r in FLUSH_REASONS if n_pending and applies[r]]
        assert reason == (due[0] if due else None)


class TestBatchSplitting:
    def test_concat_then_split_roundtrips(self):
        requests = [_request(0, n=2, width=3), _request(1, n=5, width=3)]
        merged = concat_inputs(requests)
        assert merged.shape == (7, 3)
        outputs = np.arange(14.0).reshape(7, 2)
        blocks = split_outputs(outputs, requests)
        assert [b.shape[0] for b in blocks] == [2, 5]
        assert np.array_equal(np.concatenate(blocks), outputs)

    def test_split_row_mismatch_rejected(self):
        with pytest.raises(ServingError):
            split_outputs(np.ones((3, 1)), [_request(0, n=2)])

    def test_concat_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            concat_inputs([])
