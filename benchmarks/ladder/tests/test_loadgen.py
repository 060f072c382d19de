import threading
import time

import loadgen


class Handle:
    """A future the fake servers below complete."""

    def __init__(self):
        self._event = threading.Event()
        self.value = None

    def complete(self, value="ok"):
        self.value = value
        self._event.set()

    def done(self):
        return self._event.is_set()

    def result(self, timeout=None):
        if not self._event.wait(timeout):
            raise TimeoutError("pending")
        if isinstance(self.value, Exception):
            raise self.value
        return self.value


def test_tail_percentile_needs_ten_samples_beyond():
    # 999 samples leave 9.99 beyond p99: not enough, fall back to p95.
    assert loadgen.tail_percentile(list(range(999)))[0] == 95.0
    assert loadgen.tail_percentile(list(range(1000)))[0] == 99.0
    assert loadgen.tail_percentile(list(range(199)))[0] == 90.0
    assert loadgen.tail_percentile(list(range(200)))[0] == 95.0
    pct, value, n = loadgen.tail_percentile(list(range(19)))
    assert (pct, value, n) == (0.0, 18.0, 19)
    pct, value, n = loadgen.tail_percentile(list(range(20)))
    assert pct == 50.0 and n == 20


def test_quartiles_match_statistics_module():
    assert loadgen.quartiles([1.0, 2.0, 3.0]) == (1.0, 2.0, 3.0)
    assert loadgen.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_open_loop_times_from_due_time_through_a_stall():
    """A server that blocks submit for 200 ms once: every request due
    during the stall must be charged its share of it."""
    stalled = []

    def submit(_):
        if not stalled and time.perf_counter() - start > 0.1:
            stalled.append(True)
            time.sleep(0.2)
        handle = Handle()
        handle.complete()
        return handle

    start = time.perf_counter()
    phase = loadgen.open_loop(submit, lambda: None, rate=500.0,
                              warmup_s=0.0, measure_s=0.6, timeout_s=2.0)
    assert phase.ok == 300 and phase.failed == 0
    # 500/s x 200 ms: ~100 requests were due while the server stalled and
    # their waits fall evenly from 200 ms to 0.  A generator that timed
    # from the actual send would report one slow request.
    assert max(phase.latency_s) > 0.19
    assert sum(1 for s in phase.latency_s if s > 0.1) >= 40
    assert sum(1 for s in phase.latency_s if s > 0.02) >= 80
    assert loadgen.percentile(phase.late_s, 99.0) > 0.15
    assert loadgen.generator_verdict([phase], 0.001, 0.2, 0.8) is not None


def test_open_loop_keeps_pace_with_a_fast_server():
    def submit(_):
        handle = Handle()
        handle.complete()
        return handle

    phase = loadgen.open_loop(submit, lambda: None, rate=400.0,
                              warmup_s=0.05, measure_s=0.3, timeout_s=1.0)
    assert phase.ok == 140
    assert 110 <= len(phase.latency_s) <= 122
    assert loadgen.percentile(phase.latency_s, 50.0) < 0.005
    assert loadgen.generator_verdict([phase], 0.01, 0.2, 0.8) is None


def test_closed_loop_keeps_depth_outstanding_and_counts_failures():
    lock = threading.Lock()
    outstanding = []
    peak = [0]
    submitted = [0]

    class Refused(Exception):
        pass

    def submit(_):
        with lock:
            submitted[0] += 1
            n = submitted[0]
        if n == 5:
            raise Refused()
        handle = Handle()
        with lock:
            outstanding.append(handle)
            peak[0] = max(peak[0], sum(1 for h in outstanding if not h.done()))
        value = ValueError("boom") if n == 7 else "ok"
        threading.Timer(0.005, handle.complete, args=(value,)).start()
        return handle

    phase = loadgen.closed_loop(
        submit, lambda: None, depth=4, warmup_s=0.0, measure_s=0.2,
        timeout_s=1.0, refusal=(Refused,),
        check=lambda result, inputs: None if result == "ok" else "bad")
    assert peak[0] == 4
    assert phase.refused == 1 and phase.errors == 1
    assert phase.sent == submitted[0]
    assert phase.ok == phase.sent - 2
    assert phase.throughput > 100.0


def test_closed_loop_counts_a_pending_request_as_a_timeout():
    handles = []

    def submit(_):
        handle = Handle()
        if handles:
            handle.complete()
        handles.append(handle)     # the first one never resolves
        return handle

    phase = loadgen.closed_loop(submit, lambda: None, depth=2, warmup_s=0.0,
                                measure_s=0.1, timeout_s=0.05)
    assert phase.timeouts == 1
    assert phase.ok == phase.sent - 1


def test_call_loop_reports_wrong_outputs():
    phase = loadgen.call_loop(
        lambda x: x, iter(range(10 ** 9)).__next__, warmup_s=0.0,
        measure_s=0.05, check=lambda r, i: "odd" if r % 2 else None)
    assert phase.wrong > 0 and phase.ok > 0
    assert abs(phase.wrong - phase.ok) <= 1
    assert phase.failed == phase.wrong
