"""Load generators and the statistics the benchmark reports.

Three drivers, all from one process with at most two threads:

* :func:`call_loop` — one caller invoking a function back to back,
* :func:`closed_loop` — a fixed number of outstanding requests on one
  submitter; the next request goes out only when one resolves, so a slow
  system receives less load (callers that wait for a reply),
* :func:`open_loop` — requests leave on a fixed schedule whatever the
  system does (independent users); latency is timed from the instant a
  request was *due*, so a stall is charged to every request it delayed.

A handle is anything with ``done()`` and ``result(timeout)`` —
``ServeHandle`` and ``NetHandle`` both are.  This module does not import
``repro``; the exception classes that mean "refused" are passed in.
"""

from __future__ import annotations

import queue
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles tried from the top when picking the reportable tail.
_TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


# --------------------------------------------------------------------- #
# Statistics                                                            #
# --------------------------------------------------------------------- #
def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile; NaN for an empty sample."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def tail_percentile(
    values: Sequence[float], min_beyond: int = 10
) -> Tuple[float, float, int]:
    """The highest percentile that has ``min_beyond`` samples beyond it.

    Returns ``(pct, value, n)``.  p99 needs 1000 samples, p95 200, p90
    100; a sample too small even for the median reports ``pct`` 0 and
    the sample's maximum.
    """
    n = len(values)
    for pct in _TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= min_beyond:
            return pct, percentile(values, pct), n
    return 0.0, (float(max(values)) if n else float("nan")), n


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if not values:
        nan = float("nan")
        return nan, nan, nan
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --------------------------------------------------------------------- #
# Results                                                               #
# --------------------------------------------------------------------- #
@dataclass
class Phase:
    """What one phase of load observed.

    Counts cover the whole phase, warm-up and drain included; the timed
    lists cover only completions inside the measured window.
    """

    name: str
    sent: int = 0
    ok: int = 0
    refused: int = 0
    timeouts: int = 0
    errors: int = 0
    wrong: int = 0
    window_s: float = 0.0
    wall_s: float = 0.0
    generator_cpu_s: float = 0.0
    #: Resolve instants (seconds after the window opened) of OK requests.
    done_at: List[float] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    #: Open loop only: how long after its due time each request left.
    late_s: List[float] = field(default_factory=list)
    #: Whatever ``inspect(result)`` returned for each timed OK request.
    observed: List[object] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.refused + self.timeouts + self.errors + self.wrong

    @property
    def throughput(self) -> float:
        """Completions per second between the window's first and last.

        Timed between two completions rather than over the nominal window
        so that the value is not quantised to whole requests per window.
        """
        if len(self.done_at) < 2:
            return len(self.done_at) / self.window_s if self.window_s else 0.0
        span = self.done_at[-1] - self.done_at[0]
        return (len(self.done_at) - 1) / span if span > 0 else 0.0

    @property
    def cpu_share(self) -> float:
        return self.generator_cpu_s / self.wall_s if self.wall_s else 0.0

    def counts(self) -> dict:
        return {
            "sent": self.sent, "ok": self.ok, "failed": self.failed,
            "refused": self.refused, "timeouts": self.timeouts,
            "errors": self.errors, "wrong": self.wrong,
        }


class _Settle:
    """Shared bookkeeping: classify one finished request into a Phase."""

    def __init__(self, phase: Phase, check, inspect, refusal, t_open: float,
                 t_close: float):
        self.phase = phase
        self.check = check
        self.inspect = inspect
        self.refusal = refusal
        self.t_open = t_open
        self.t_close = t_close

    def refused_at_submit(self) -> None:
        self.phase.sent += 1
        self.phase.refused += 1

    def failure(self, exc: BaseException, resolved: bool) -> None:
        phase = self.phase
        if isinstance(exc, self.refusal):
            phase.refused += 1
        elif not resolved:
            phase.timeouts += 1
        else:
            phase.errors += 1
            if len(phase.problems) < 5:
                phase.problems.append(f"{phase.name}: {exc!r}")

    def success(self, result, inputs, since: float, now: float) -> None:
        phase = self.phase
        complaint = self.check(result, inputs) if self.check else None
        if complaint:
            phase.wrong += 1
            if len(phase.problems) < 5:
                phase.problems.append(f"{phase.name}: {complaint}")
            return
        phase.ok += 1
        if self.t_open <= now <= self.t_close:
            phase.done_at.append(now - self.t_open)
            phase.latency_s.append(now - since)
            if self.inspect is not None:
                phase.observed.append(self.inspect(result))


# --------------------------------------------------------------------- #
# Drivers                                                               #
# --------------------------------------------------------------------- #
def call_loop(
    call: Callable[[object], object],
    next_inputs: Callable[[], object],
    warmup_s: float,
    measure_s: float,
    check=None,
    inspect=None,
    name: str = "closed",
) -> Phase:
    """One caller, back to back: each call's duration is its latency."""
    phase = Phase(name)
    t_start = time.perf_counter()
    t_open = t_start + warmup_s
    t_close = t_open + measure_s
    settle = _Settle(phase, check, inspect, (), t_open, t_close)
    inside = 0.0
    while True:
        inputs = next_inputs()
        began = time.perf_counter()
        if began >= t_close:
            break
        phase.sent += 1
        try:
            result = call(inputs)
        except Exception as exc:  # a failed invocation is a counted failure
            settle.failure(exc, resolved=True)
            continue
        ended = time.perf_counter()
        inside += ended - began
        settle.success(result, inputs, began, ended)
    phase.window_s = measure_s
    phase.wall_s = time.perf_counter() - t_start
    # One thread is caller and program both: the generator's share is the
    # time spent outside the calls.
    phase.generator_cpu_s = phase.wall_s - inside
    return phase


def closed_loop(
    submit: Callable[[object], object],
    next_inputs: Callable[[], object],
    depth: int,
    warmup_s: float,
    measure_s: float,
    timeout_s: float,
    check=None,
    inspect=None,
    refusal: tuple = (),
    name: str = "closed",
) -> Phase:
    """Keep ``depth`` requests outstanding from one submitting thread.

    Every pass first reaps *all* resolved handles (stamping them with one
    clock reading), then refills the window, then blocks on the oldest —
    so a resolved request never waits behind a submit to be timed.
    """
    phase = Phase(name)
    cpu0 = time.thread_time()
    t_start = time.perf_counter()
    t_open = t_start + warmup_s
    t_close = t_open + measure_s
    settle = _Settle(phase, check, inspect, refusal, t_open, t_close)
    window: deque = deque()   # (submitted_at, handle, inputs)
    draining = False
    while True:
        now = time.perf_counter()
        for _ in range(len(window)):
            since, handle, inputs = window[0]
            if handle.done():
                window.popleft()
                try:
                    result = handle.result(0)
                except Exception as exc:
                    settle.failure(exc, resolved=True)
                else:
                    settle.success(result, inputs, since, now)
            elif now - since > timeout_s:
                window.popleft()
                settle.failure(TimeoutError(), resolved=False)
            else:
                window.rotate(-1)
        if now >= t_close:
            draining = True
        if draining:
            if not window:
                break
        else:
            while len(window) < depth:
                inputs = next_inputs()
                since = time.perf_counter()
                try:
                    handle = submit(inputs)
                except refusal:
                    settle.refused_at_submit()
                    break
                phase.sent += 1
                window.append((since, handle, inputs))
        if window:
            oldest = window[0][1]
            try:
                oldest.result(min(timeout_s, 0.25))
            except Exception:  # classified by the reap pass above
                pass
        else:
            time.sleep(0.001)   # everything refused: do not spin
    phase.window_s = measure_s
    phase.wall_s = time.perf_counter() - t_start
    phase.generator_cpu_s = time.thread_time() - cpu0
    return phase


def open_loop(
    submit: Callable[[object], object],
    next_inputs: Callable[[], object],
    rate: float,
    warmup_s: float,
    measure_s: float,
    timeout_s: float,
    check=None,
    inspect=None,
    refusal: tuple = (),
    name: str = "open",
) -> Phase:
    """Send on a fixed schedule; time every request from its due instant.

    A sender thread paces ``rate`` requests per second and never waits for
    a reply; when it falls behind (the system stalled its ``submit``) it
    catches up at once, and because latency runs from the *due* time the
    stall is charged to every request it delayed — no coordinated
    omission.  The calling thread reaps in send order.
    """
    phase = Phase(name)
    total = max(int(round(rate * (warmup_s + measure_s))), 1)
    t_start = time.perf_counter()
    t_first = t_start + 0.005
    t_open = t_first + warmup_s
    t_close = t_first + warmup_s + measure_s
    settle = _Settle(phase, check, inspect, refusal, t_open, t_close)
    sent: "queue.SimpleQueue" = queue.SimpleQueue()
    sender_cpu = [0.0]

    def sender() -> None:
        cpu0 = time.thread_time()
        try:
            for i in range(total):
                due = t_first + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                inputs = next_inputs()
                left_at = time.perf_counter()
                try:
                    handle = submit(inputs)
                except refusal:
                    sent.put((due, left_at, None, inputs))
                else:
                    sent.put((due, left_at, handle, inputs))
        finally:
            sender_cpu[0] = time.thread_time() - cpu0
            sent.put(None)

    cpu0 = time.thread_time()
    thread = threading.Thread(target=sender, name="ladder-open-sender",
                              daemon=True)
    thread.start()
    while True:
        item = sent.get()
        if item is None:
            break
        due, left_at, handle, inputs = item
        if t_open <= due <= t_close:
            phase.late_s.append(left_at - due)
        if handle is None:
            settle.refused_at_submit()
            continue
        phase.sent += 1
        try:
            result = handle.result(timeout_s)
        except Exception as exc:
            settle.failure(exc, resolved=handle.done())
        else:
            settle.success(result, inputs, due, time.perf_counter())
    thread.join(timeout=timeout_s)
    if thread.is_alive():
        phase.problems.append(f"{name}: open-loop sender did not finish")
    phase.window_s = measure_s
    phase.wall_s = time.perf_counter() - t_start
    phase.generator_cpu_s = (time.thread_time() - cpu0) + sender_cpu[0]
    return phase


def generator_verdict(
    phases: Sequence[Phase],
    latency_p50_s: float,
    max_late_share: float,
    max_cpu_share: float,
) -> Optional[str]:
    """Why these phases measured the generator, not the program, or None.

    Pooled over the phases of one kind (a workload's open phases, say): a
    single host hiccup in one trial is what the median over trials is
    for; a generator that is late or busy throughout is not.
    """
    wall = sum(p.wall_s for p in phases)
    if wall and sum(p.generator_cpu_s for p in phases) / wall > max_cpu_share:
        share = sum(p.generator_cpu_s for p in phases) / wall
        return (f"{phases[0].name}: generator used {share:.0%} of a core "
                f"(limit {max_cpu_share:.0%})")
    late = [s for p in phases for s in p.late_s]
    if late and latency_p50_s > 0:
        p99 = percentile(late, 99.0)
        if p99 > max_late_share * latency_p50_s:
            return (f"{phases[0].name}: open-loop lateness p99 "
                    f"{p99 * 1e3:.3f} ms exceeds {max_late_share:.0%} of the "
                    f"p50 latency {latency_p50_s * 1e3:.3f} ms")
    return None
