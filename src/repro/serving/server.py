"""The quality-managed inference server.

Architecture — one serving core over one worker transport::

    callers ──submit()──► AdmissionQueue (bounded, work-conserving)
                                │ take()             ▲ batch_done()
       core (this module)  admission pump: stamp, chaos, Batch(seq)
                           retry heap · backpressure · journal ·
                           trace export · stats · handle resolution
                                │ dispatch(batch)    ▲ on_complete(report)
                                ▼                    │ on_failure(error)
       transport.py        ThreadTransport    |    ProcessTransport
                           shard threads w0…wN     dispatcher → shm rings
                           (run_invocation         worker processes p0…pN
                            whole, in place)       collector + supervisor

The core is written once; ``config.backend`` picks the transport, which
only moves a batch to a :class:`~repro.core.runtime.RumbaSystem` shard
and reports the outcome (contract: :mod:`repro.serving.transport` and
``docs/serving.md``).  On either backend a worker runs an invocation
whole — accelerate, detect, recover, tune — the paper's Fig. 8 overlap
of the two halves being modelled by ``simulate_pipeline``, not enacted.
The :class:`BackpressureController` watches the core's backlog (batches
in flight plus the batches the waiting requests would form) and trades
quality for stability when the workers fall behind: each batch carries
the controller's level at dispatch (``Batch.level``) and runs at it.  The
bounded admission queue sheds load past that.

Everything is observable: the core keeps one per-worker
:class:`~repro.observability.Telemetry` (``worker=<name>`` label) on the
server's metrics registry and feeds it each batch's report, so thread
and process workers export the same loop series; the server adds the
service-level ones (``rumba_serve_*``).  :meth:`RumbaServer.stats` is
the health endpoint.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.offline import prepare_system
from repro.core.runtime import RumbaSystem
from repro.errors import (
    ConfigurationError,
    OverloadedError,
    ServingError,
    WorkerCrashError,
)
from repro.observability.flightlog import FLIGHT_LOG_VERSION, FlightRecorder
from repro.observability.instrument import Telemetry
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.observability.reqtrace import (
    STAGE_ADMIT,
    STAGE_COMPLETE,
    STAGE_DEQUEUE,
    STAGE_DISPATCH,
    STAGE_RETRY,
    TracingPolicy,
    segments,
)
from repro.serving.backpressure import BackpressureController
from repro.serving.batching import FLUSH_REASONS, AdmissionQueue, split_outputs
from repro.serving.bufpool import BufferPool
from repro.serving.config import ServerConfig
from repro.serving.faults import ChaosConfig, ChaosMonkey
from repro.serving.journal import RequestJournal, unpack_bits
from repro.serving.procpool import ProcessWorkerPool
from repro.serving.request import ServeHandle, ServeRequest, ServeResult
from repro.serving.transport import (
    Batch,
    ProcessTransport,
    ThreadTransport,
    stamp_batch,
)

__all__ = ["RumbaServer", "WorkerShard"]


def _batch_level(requests: List[ServeRequest], live: int) -> int:
    """``live``, or the level every request of the batch forces; mixed
    forcing is refused."""
    level = requests[0].level
    if any(r.level != level for r in requests):
        raise ConfigurationError("a batch cannot mix forced levels")
    return live if level is None else level


@dataclass
class WorkerShard:
    """The core's view of one worker: the telemetry its batch reports
    are read into, which also counts its batches and elements.

    ``system`` is the worker's shard when it lives in this process (the
    thread transport); a process worker's system is in another address
    space and the view carries None.
    """

    name: str
    system: Optional[RumbaSystem] = None
    telemetry: Optional[Telemetry] = None


class RumbaServer:
    """Batched, parallel, quality-managed serving of one benchmark kernel.

    The constructor takes a :class:`~repro.serving.config.ServerConfig`::

        config = ServerConfig(
            n_workers=4,
            backend="process",
            batching=BatchingConfig(max_batch_requests=16),
            retry=RetryConfig(default_deadline_s=10.0),
        )
        server = RumbaServer(config=config)

    Parameters
    ----------
    app, scheme:
        Which benchmark kernel and checker scheme to serve.  Explicit
        arguments override the values in ``config``; both default to the
        config's (``fft`` / ``treeErrors``).
    prototype:
        A prepared :class:`RumbaSystem` to shard (tests inject doctored
        systems here).  When None, :func:`prepare_system` builds one from
        the app/scheme/seed.  A prototype's own app and scheme names win
        over both ``app``/``scheme`` and the config.
    config:
        The grouped server configuration; see
        :class:`~repro.serving.config.ServerConfig` for every knob
        (batching, backpressure, retries/supervision, backend, chaos).
    registry:
        Metrics registry to export into (a private one by default).

    Backend semantics, batching policy, backpressure, deadline-budgeted
    retries, and supervision are documented on the config sections and in
    ``docs/serving.md`` / ``docs/performance.md``.
    """

    def __init__(
        self,
        app: Optional[str] = None,
        scheme: Optional[str] = None,
        prototype: Optional[RumbaSystem] = None,
        config: Optional[ServerConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        config = (config or ServerConfig()).with_overrides(**{
            k: v for k, v in (("app", app), ("scheme", scheme))
            if v is not None
        })
        self.config = config
        self.app_name = (
            prototype.app.name if prototype is not None else config.app
        )
        self.scheme = (
            prototype.predictor.name if prototype is not None
            else config.scheme
        )
        self._prototype = prototype
        self.backend = config.backend
        self.n_workers = config.n_workers
        self.registry = registry if registry is not None else MetricsRegistry()

        self._admission = AdmissionQueue(
            capacity=config.batching.admission_capacity,
            max_batch_requests=config.batching.max_batch_requests,
            flush_interval_s=config.batching.flush_interval_s,
            workers=config.n_workers,
        )
        # Transport buffers — staged request inputs and multi-request
        # batch concats — are leased from one shared pool and recycled at
        # well-defined points; buffers that escape to callers (ServeResult
        # outputs) never come from it.  See serving/bufpool.py.
        self._bufpool = BufferPool()

        self.shards: List[WorkerShard] = []
        self._shard_by_name: Dict[str, WorkerShard] = {}
        self.controller: Optional[BackpressureController] = None
        self._state = "new"
        self._flight_cond = threading.Condition()
        self._inflight = 0
        self._request_ids = itertools.count()
        self._batch_seq = itertools.count()

        # Fault tolerance: deadline-budgeted retries (the transport does
        # its own worker supervision).
        self._retry_cond = threading.Condition()
        self._retry_heap: List[Tuple[float, int, ServeRequest]] = []
        self._retry_seq = 0
        self._retry_stop = False
        self._retry_thread: Optional[threading.Thread] = None
        self._retries_total = 0
        chaos = config.chaos
        self.chaos_monkey: Optional[ChaosMonkey] = (
            ChaosMonkey(chaos) if isinstance(chaos, ChaosConfig) else chaos
        )

        # Request tracing: sampling policy and flight recorder (see
        # docs/observability.md and observability/reqtrace).
        self.tracing = TracingPolicy.from_config(config.tracing)
        self.flight_recorder = None
        if config.tracing.enabled and config.tracing.flight_log_path:
            self.flight_recorder = FlightRecorder(
                config.tracing.flight_log_path
            )
        self._traced_lock = threading.Lock()
        self._traced_total = 0

        # Durable request journal: every terminal completion is appended
        # as an FT_JOURNAL frame carrying inputs, outputs, decision bits,
        # and status, the raw material for ``python -m repro replay``
        # (see docs/replay.md).
        self.journal = None
        if config.journal.enabled:
            self.journal = RequestJournal(
                config.journal.path, max_bytes=config.journal.max_bytes
            )
        self._build_metrics()

        # The one place the backend is consulted: everything below talks
        # to ``self._transport`` only.
        core = dict(
            on_complete=self._on_complete,
            on_failure=self._retry_or_fail,
            worker_metrics=self._worker_metrics,
            # Reports carry each batch's packed decision bits only when a
            # journal will record them.
            include_bits=self.journal is not None,
        )
        if config.backend == "process":
            self._transport = ProcessTransport(
                config, chaos=self.chaos_monkey, **core
            )
        else:
            self._transport = ThreadTransport(
                config, bufpool=self._bufpool, **core
            )

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #
    def _build_metrics(self) -> None:
        r = self.registry
        base = ("app", "scheme")
        labels = self._labels = {"app": self.app_name, "scheme": self.scheme}
        self._m_requests = r.counter(
            "rumba_serve_requests_total",
            "Requests by admission/completion outcome", base + ("outcome",),
        )
        self._m_batch_requests = r.counter(
            "rumba_serve_batched_requests_total",
            "Requests dispatched inside batches, per worker",
            base + ("worker",),
        )
        flushed = r.counter(
            "rumba_serve_batches_flushed_total",
            "Batches dequeued, by what made them due", base + ("reason",),
        )
        self._c_flushed = {
            reason: flushed.labels(reason=reason, **labels)
            for reason in FLUSH_REASONS
        }
        self._g_admission_depth = r.gauge(
            "rumba_serve_admission_depth",
            "Requests waiting in the admission queue", base,
        ).labels(**labels)
        self._g_backlog = r.gauge(
            "rumba_serve_recovery_backlog",
            "Batches in flight plus batches the waiting requests would form",
            base,
        ).labels(**labels)
        self._g_inflight = r.gauge(
            "rumba_serve_inflight_requests",
            "Admitted requests not yet completed", base,
        ).labels(**labels)
        self._g_degradation = r.gauge(
            "rumba_serve_degradation_level",
            "Backpressure degradation steps currently in effect", base,
        ).labels(**labels)
        self._h_latency = r.histogram(
            "rumba_serve_request_latency_seconds",
            "Submission-to-completion latency per request", base,
            buckets=DEFAULT_LATENCY_BUCKETS,
        ).labels(**labels)
        # Per-stage waterfall segments from sampled request traces; the
        # registry's bucket overrides give this family the fine 50 µs
        # grid (sub-millisecond shm/queue hops need it).
        self._m_stage = r.histogram(
            "rumba_stage_seconds",
            "Per-stage latency segments from sampled request traces",
            base + ("stage",),
        )
        self._m_worker_restarts = r.counter(
            "rumba_serve_worker_restarts",
            "Dead worker processes restarted by the supervisor",
            base + ("worker",),
        )
        self._m_retries = r.counter(
            "rumba_serve_retries",
            "Requests re-dispatched after a worker fault",
            base + ("worker",),
        )
        # Ensemble routing: cumulative per-member row counts per worker,
        # from each batch's report; silent when the server runs without
        # an ensemble.
        self._m_ens_routed = r.gauge(
            "rumba_ensemble_routed_rows",
            "Rows routed to each ensemble member, cumulative per worker",
            base + ("worker", "member"),
        )
        # Label resolution (dict hashing under the family lock) costs a
        # few microseconds; the per-request and per-batch paths pay it
        # many times per request, so the hot children are resolved once.
        self._c_accepted = self._m_requests.labels(outcome="accepted", **labels)
        self._c_completed = self._m_requests.labels(
            outcome="completed", **labels
        )
        self._c_failed = self._m_requests.labels(outcome="failed", **labels)
        self._c_shed = self._m_requests.labels(outcome="shed", **labels)
        self._worker_children: Dict[str, SimpleNamespace] = {}

    def _worker_metrics(self, name: str) -> SimpleNamespace:
        """Per-worker labeled children, resolved once per worker name."""
        child = self._worker_children.get(name)
        if child is None:
            labels = dict(self._labels, worker=name)
            child = SimpleNamespace(
                batch_requests=self._m_batch_requests.labels(**labels),
                restarts=self._m_worker_restarts.labels(**labels),
            )
            self._worker_children[name] = child
        return child

    def _export_ensemble(self, worker: str, snapshot: Dict[str, object]) -> None:
        """Re-export one worker's ensemble counters (the ``ensemble`` entry
        of its report, :meth:`ApproximatorEnsemble.snapshot`)."""
        labels = dict(self._labels, worker=worker)
        members = snapshot.get("members", ())
        for member, rows in zip(members, snapshot.get("routed", ())):
            self._m_ens_routed.labels(member=member, **labels).set(int(rows))

    def prepare(self) -> "RumbaServer":
        """Train (or adopt) the prototype and lay out one shard per worker."""
        if self._state != "new":
            raise ServingError(f"cannot prepare a {self._state} server")
        if self._prototype is None:
            ensemble_spec = (
                self.config.ensemble.to_spec()
                if self.config.ensemble.enabled else None
            )
            self._prototype = prepare_system(
                self.app_name, scheme=self.scheme,
                seed=self.config.seed, ensemble=ensemble_spec,
            )
        self.shards = []
        for name, system in self._transport.prepare(self._prototype):
            telemetry = Telemetry(
                registry=self.registry,
                extra_labels={"worker": name},
                **self._labels,
            )
            # Publish the starting threshold, as attaching to a system does.
            telemetry.on_threshold(self._prototype.tuner.threshold, 0)
            self.shards.append(WorkerShard(
                name=name, system=system, telemetry=telemetry,
            ))
        self._shard_by_name = {shard.name: shard for shard in self.shards}
        bp = self.config.backpressure
        self.controller = BackpressureController(
            high_watermark=bp.high_watermark,
            low_watermark=bp.low_watermark,
        )
        self._state = "ready"
        return self

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        return self._state

    @property
    def prototype(self) -> Optional[RumbaSystem]:
        """The prepared system the worker shards were cloned from."""
        return self._prototype

    @property
    def pool(self) -> Optional[ProcessWorkerPool]:
        """The worker-process pool (None on the thread backend)."""
        return self._transport.pool

    def start(self) -> "RumbaServer":
        """Spawn the retry thread and the transport's workers."""
        if self._state == "new":
            self.prepare()
        if self._state != "ready":
            raise ServingError(f"cannot start a {self._state} server")
        self._state = "running"
        if self.journal is not None:
            self._write_journal_meta()
        self._transport.start(self._pump)
        # After the transport: on threads, the retry thread re-dispatches
        # onto the shards' queue, so it joins their CPU hold (cpuhold.py).
        self._retry_thread = threading.Thread(
            target=self._retry_loop, name="rumba-serve-retry", daemon=True,
        )
        self._retry_thread.start()
        if self.chaos_monkey is not None:
            self.chaos_monkey.start()
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting and wait for in-flight requests to finish.

        Returns True when everything completed within ``timeout``.
        """
        if self._state not in ("running", "draining"):
            raise ServingError(f"cannot drain a {self._state} server")
        self._state = "draining"
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._flight_cond:
            while self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._flight_cond.wait(timeout=remaining)
        return True

    def stop(self, timeout: float = 10.0) -> None:
        """Drain, then tear the worker groups down."""
        if self._state in ("running", "draining"):
            # Chaos stops before the drain so shutdown itself is
            # fault-free.
            if self.chaos_monkey is not None:
                self.chaos_monkey.stop()
            self.drain(timeout=timeout)
            self._admission.close()
            with self._retry_cond:
                self._retry_stop = True
                self._retry_cond.notify_all()
            self._transport.stop(timeout)
            if self._retry_thread is not None:  # None: transport.start raised
                self._retry_thread.join(timeout=timeout)
            # Fail anything that somehow survived the drain (e.g. timeout).
            with self._retry_cond:
                abandoned = [entry[2] for entry in self._retry_heap]
                self._retry_heap.clear()
            abandoned += self._admission.drain_remaining()
            self._finish_requests(abandoned, ServingError("server stopped"))
            self.controller.reset()
            self._g_degradation.set(self.controller.level)
        # After the abandoned requests above, so their (promoted) error
        # records are the last thing logged before the files close.
        if self.flight_recorder is not None:
            self.flight_recorder.close()
        if self.journal is not None:
            self.journal.close()
        if self._state != "new":
            self._state = "stopped"

    def __enter__(self) -> "RumbaServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Admission                                                          #
    # ------------------------------------------------------------------ #
    def submit(
        self,
        inputs: np.ndarray,
        deadline_s: Optional[float] = None,
        trace: Optional[object] = None,
        level: Optional[int] = None,
    ) -> ServeHandle:
        """Admit one request; raises :class:`OverloadedError` when shed.

        ``deadline_s`` bounds the request's total time budget (dispatch,
        fault-triggered retries, recovery); it defaults to the server's
        ``default_deadline_s``.  ``trace`` lets a fronting edge (the TCP
        server) hand in a :class:`RequestTrace` it already started; when
        None, the server's sampling policy decides.  ``level`` (in
        ``[0, controller.max_level]``) forces the backpressure level the
        request's batch runs at — the replay harness passes the journaled
        level here.
        """
        if self._state != "running":
            raise ServingError(
                f"server is {self._state}; submissions need a running server"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError("deadline_s must be > 0")
        if level is not None:
            if level not in range(self.controller.max_level + 1):
                raise ConfigurationError(f"level {level!r} is not in [0, "
                                         f"{self.controller.max_level}]")
            level = int(level)
        arr = np.asarray(inputs, dtype=float)
        pooled = not (arr is inputs or arr.base is inputs)
        arr = np.atleast_2d(arr)
        if arr.shape[0] == 0:
            raise ConfigurationError("a request needs at least one element")
        if pooled:
            # Conversion allocated fresh rows anyway (list input, wrong
            # dtype); land them in a pooled arena instead so completion
            # recycles the memory rather than leaving it to the GC.
            inputs = self._bufpool.lease(arr.shape)
            np.copyto(inputs, arr)
        else:
            # The caller handed us a float64 ndarray (or a cheap view of
            # one): use it in place.  The contract is the usual zero-copy
            # one — the rows must stay untouched until the handle
            # completes (dispatch, retries, and recovery all read them).
            inputs = arr
        if trace is None:
            trace = self.tracing.new_trace()
        request = ServeRequest(
            request_id=next(self._request_ids),
            inputs=inputs,
            submitted_at=time.monotonic(),
            deadline_s=deadline_s,
            trace=trace,
            pooled=pooled,
            level=level,
        )
        if trace is not None:
            trace.stamp(STAGE_ADMIT, at=request.submitted_at)
        admitted = False
        try:
            admitted = self._admission.offer(request)
        finally:
            if pooled and not admitted:
                self._bufpool.release(inputs)
        if not admitted:
            self._c_shed.inc()
            raise OverloadedError(
                f"admission queue full ({self._admission.capacity} waiting); "
                "back off and retry"
            )
        with self._flight_cond:
            self._inflight += 1
        self._c_accepted.inc()
        self._g_inflight.set(self._inflight)
        # Admission depth is refreshed by the dispatchers at every
        # dequeue; sampling it here too would put a second gauge update
        # (family lock and all) on the submit hot path for no extra
        # fidelity.
        return request.handle

    def submit_wait(
        self,
        inputs: np.ndarray,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> ServeResult:
        """Convenience: submit and block for the result."""
        return self.submit(inputs, deadline_s=deadline_s).result(timeout)

    # ------------------------------------------------------------------ #
    # Dispatch and completion (the transport calls back into these)      #
    # ------------------------------------------------------------------ #
    def _pump(self, dispatch, worker: str = "") -> None:
        """The admission dequeue loop; transports run it on their threads."""
        while self._pump_once(dispatch, worker):
            pass

    def _pump_once(self, dispatch, worker: str = "") -> bool:
        """Take one admission batch and hand it to ``dispatch``.

        Returns False once the admission queue is closed and empty.
        """
        taken = self._admission.take()
        if taken is None:
            return False
        reason, requests = taken
        self._c_flushed[reason].inc()
        # Stage stamps are only ever read at export, and export is gated
        # on ``sampled`` — so unsampled traces skip the whole stamping
        # pipeline (at the default 1/64 sampling that is nearly every
        # request).  An error later promotes a trace to sampled; its
        # waterfall then starts at the promotion point (admit and the
        # error stages are always recorded).
        traced = [
            r.trace for r in requests
            if r.trace is not None and r.trace.sampled
        ]
        stamp_batch(traced, STAGE_DEQUEUE)
        self._g_admission_depth.set(len(self._admission))
        dispatched_at = time.monotonic()
        stamp_batch(traced, STAGE_DISPATCH, at=dispatched_at)
        batch = Batch(
            seq=next(self._batch_seq),
            requests=requests,
            traced=traced,
            dispatched_at=dispatched_at,
            level=self.controller.level,
        )
        try:
            batch.level = _batch_level(requests, batch.level)
            if self.chaos_monkey is not None:
                self.chaos_monkey.maybe_fail(where=worker)
            dispatch(batch)
        except Exception as exc:
            self._retry_or_fail(batch, exc, worker)
        return True

    def _observe_backlog(self) -> None:
        """Export the backlog and feed the controller.

        Called once per batch reported back, completed or failed — a
        take only moves a batch from waiting to in flight — so the
        controller steps at the pace the workers finish work, and a
        burst escalates one level per completed batch, not all at once.
        """
        backlog = self._admission.backlog()
        self._g_backlog.set(backlog)
        step = self.controller.update(backlog)
        if step != 0:
            self._g_degradation.set(self.controller.level)
            # Every worker's next batch runs at the new level.
            for shard in self.shards:
                shard.telemetry.on_tuner_move(step)

    def _on_complete(
        self,
        batch: Batch,
        worker: str,
        outputs: np.ndarray,
        report: Dict[str, object],
    ) -> None:
        """A worker finished ``batch``: account, journal, resolve handles.

        ``report`` is :func:`repro.serving.procpool.worker_snapshot` of
        the worker's system and the batch's invocation record; its stage
        chain is the worker's side of every sampled request's waterfall
        and, with the record facts beside it, what the worker's loop
        series are derived from — the same on either transport.
        """
        self._admission.batch_done()
        requests = batch.requests
        shard = self._shard_by_name[worker]
        stages = report.get("stages")
        if stages:
            for trace in batch.traced:
                trace.splice(stages)
            shard.telemetry.observe(stages, report)
        self._worker_metrics(worker).batch_requests.inc(len(requests))
        if report.get("ensemble") is not None:
            self._export_ensemble(worker, report["ensemble"])
        try:
            blocks = split_outputs(outputs, requests)
        except Exception as exc:
            self._finish_requests(requests, exc)
        else:
            self._finish_requests(
                requests,
                blocks=blocks,
                layouts=(
                    self._journal_layout(batch, report)
                    if self.journal is not None else None
                ),
                worker=worker,
                degraded=batch.level > 0,
                dispatched_at=batch.dispatched_at,
                fix_fraction=report.get("fix_fraction", 0.0),
            )
        self._observe_backlog()

    # ------------------------------------------------------------------ #
    # Deadline-budgeted retries                                          #
    # ------------------------------------------------------------------ #
    def _retry_or_fail(
        self, batch: Batch, error: BaseException, worker: str = ""
    ) -> None:
        """Route a failed batch: re-dispatch retryable faults, fail the rest.

        This is the transports' ``on_failure`` callback, and where a
        dispatch that raised ends up.  Only :class:`WorkerCrashError`
        (real or injected worker death) is retryable — application
        errors would fail identically on replay.
        A retry must fit inside the request's deadline budget *including*
        its exponential backoff; otherwise the caller gets a
        :class:`ServingError` immediately rather than a doomed wait.
        """
        self._admission.batch_done()
        policy = self.config.retry
        retryable = isinstance(error, WorkerCrashError)
        now = time.monotonic()
        for request in batch.requests:
            backoff = policy.retry_backoff_s * (2 ** request.attempts)
            if (
                retryable
                and request.attempts < policy.max_retries
                and now + backoff
                < request.deadline_at(policy.default_deadline_s)
                and self._state in ("running", "draining")
            ):
                request.attempts += 1
                if request.trace is not None:
                    request.trace.stamp(STAGE_RETRY, at=now)
                    # Retried requests always leave a flight record.
                    request.trace.mark_sampled()
                self._retries_total += 1
                self._m_retries.labels(
                    worker=worker or "none", **self._labels
                ).inc()
                with self._retry_cond:
                    self._retry_seq += 1
                    heapq.heappush(
                        self._retry_heap,
                        (now + backoff, self._retry_seq, request),
                    )
                    self._retry_cond.notify()
                continue
            final = error
            if retryable:
                if request.attempts >= policy.max_retries:
                    final = ServingError(
                        f"request {request.request_id} failed after "
                        f"{request.attempts + 1} attempts "
                        f"(retry bound {policy.max_retries}): {error}"
                    )
                else:
                    final = ServingError(
                        f"request {request.request_id} deadline budget "
                        "exhausted after "
                        f"{request.attempts + 1} attempt(s): {error}"
                    )
            self._finish_requests([request], final)
        self._observe_backlog()

    def _retry_loop(self) -> None:
        """Sleep until the next backed-off request is due, then requeue."""
        while True:
            with self._retry_cond:
                if self._retry_stop:
                    return
                now = time.monotonic()
                ready_at = (
                    self._retry_heap[0][0] if self._retry_heap else now + 0.1
                )
                if ready_at > now:
                    self._retry_cond.wait(timeout=min(ready_at - now, 0.1))
                    continue
            self._requeue_due(now)

    def _requeue_due(self, now: float) -> None:
        """Re-offer every request whose backoff ended by ``now``."""
        while True:
            with self._retry_cond:
                if not self._retry_heap or self._retry_heap[0][0] > now:
                    return
                _, _, request = heapq.heappop(self._retry_heap)
            try:
                self._admission.requeue(request)
            except ServingError as exc:
                # The server shut down between the worker fault and this
                # backed-off retry landing (close() won the race).  The
                # request must still reach terminal completion — failing
                # the handle here is what keeps the submitter from
                # blocking out its full deadline budget.
                self._finish_requests([request], ServingError(
                    f"request {request.request_id} could not be "
                    f"re-queued after attempt {request.attempts}: {exc}"
                ))

    # ------------------------------------------------------------------ #
    # Request journal                                                    #
    # ------------------------------------------------------------------ #
    def _write_journal_meta(self) -> None:
        """Describe the run at the head of the journal.

        The writer re-emits this document at the head of every rotated
        generation, so a reader holding only the live file still knows
        what run it is looking at.  ``python -m repro replay`` builds the
        replay server from these fields.
        """
        flat = {
            key: value for key, value in self.config.flat().items()
            if key != "chaos"
            and isinstance(value, (str, int, float, bool, type(None)))
        }
        self.journal.write_meta({
            "app": self.app_name,
            "scheme": self.scheme,
            "backend": self.backend,
            "n_workers": self.n_workers,
            "seed": self.config.seed,
            "measure_quality": self.config.measure_quality,
            "threshold": (
                float(self._prototype.tuner.threshold)
                if self._prototype is not None else None
            ),
            "chaos": self.chaos_monkey is not None,
            "config": flat,
        })

    @staticmethod
    def _journal_layout(batch: Batch, report: Dict[str, object]):
        """Per-request journal coordinates for one completed batch.

        Each request gets ``(header fields, decision bits)``: the batch's
        sequence number, its row slice of the batch (offset + total rows
        — what replay needs to rebuild the exact batch composition), the
        batch's backpressure level, threshold and measured error, its
        slice of the per-row decision bits, and — on ensemble runs — its
        slice of the routed member choices (``backend_ids``).  Replay
        forces the level back and diffs the choices it re-derives.  Bits
        and choices arrive packed in the worker's report
        (``include_bits``).
        """
        bits = unpack_bits(
            report.get("decision_bits", b""), report.get("decision_nbits", 0)
        )
        choices = None
        if report.get("backend_ids") is not None:
            choices = np.frombuffer(report["backend_ids"], dtype=np.int8)
        shared = {"batch": batch.seq,
                  "batch_rows": sum(r.n_elements for r in batch.requests),
                  "level": batch.level}
        for key in ("threshold", "measured_error"):
            if report.get(key) is not None:
                shared[key] = float(report[key])
        layout = []
        offset = 0
        for request in batch.requests:
            end = offset + request.n_elements
            fields = dict(shared, row_offset=offset)
            if choices is not None:
                fields["backend_ids"] = [int(c) for c in choices[offset:end]]
            layout.append(
                (fields, bits[offset:end] if bits is not None else None)
            )
            offset = end
        return layout

    def _journal_request(
        self,
        request: ServeRequest,
        facts: Dict[str, object],
        outputs: Optional[np.ndarray],
        dispatched: bool,
        layout,
    ) -> None:
        """Append one terminal completion to the request journal.

        Called from ``_finish_requests`` *before* the pooled input buffer
        is recycled (the record snapshots the rows) and before the handle
        resolves (a crash immediately after completion still finds the
        record on disk).  Journaling must never fail a request, so disk
        errors are swallowed like the flight recorder's.
        """
        failed = facts["error"] is not None
        fields, bits = layout if layout is not None else ({}, None)
        header = {
            key: facts[key]
            for key in ("request_id", "trace_id", "worker", "attempts",
                        "latency_s")
        }
        header["status"] = "error" if failed else "ok"
        header.update(fields)
        if dispatched:
            header["queue_wait_s"] = facts["queue_wait_s"]
        if failed:
            header["error"] = facts["error"]
            header["error_message"] = facts["error_message"]
        else:
            header["fix_fraction"] = facts["fix_fraction"]
        try:
            self.journal.record_request(
                header,
                inputs=np.atleast_2d(request.inputs),
                outputs=outputs,
                bits=bits,
            )
        except OSError:  # pragma: no cover - disk full / fs races
            pass

    def _finish_requests(
        self,
        requests: List[ServeRequest],
        error: Optional[BaseException] = None,
        blocks: Optional[List[np.ndarray]] = None,
        layouts=None,
        worker: str = "",
        degraded: bool = False,
        dispatched_at: Optional[float] = None,
        fix_fraction: float = 0.0,
    ) -> None:
        """The terminal funnel: every request ends here exactly once.

        A completed batch arrives whole (``blocks`` and ``layouts`` run
        parallel to ``requests``); the error paths pass the requests that
        share one ``error``.  Whatever is per batch — the clock reading,
        the outcome counter, the latency histogram, the in-flight count
        and its gauge — is touched once, which leaves the handle's own
        lock as the only lock taken per request.
        """
        now = time.monotonic()
        latencies = [now - r.submitted_at for r in requests]
        # Series first: a caller woken by its handle reads them updated.
        if error is not None:
            self._c_failed.inc(len(requests))
        else:
            self._c_completed.inc(len(requests))
            self._h_latency.observe_many(latencies)
        for i, request in enumerate(requests):
            if request.handle.done():  # pragma: no cover - defensive backstop
                continue
            latency = queue_wait = latencies[i]
            if dispatched_at is not None:
                queue_wait = max(dispatched_at - request.submitted_at, 0.0)
            outputs = None if blocks is None else blocks[i]
            trace = request.trace
            if trace is not None and error is not None:
                trace.mark_sampled()
            sampled = trace is not None and trace.sampled
            if sampled or self.journal is not None:
                # What the journal header, the flight record and the slow-
                # request exemplar all say about this completion.
                code = message = None
                if error is not None:
                    # Imported lazily: serving.net imports this module at
                    # its own import time.
                    from repro.serving.net import protocol as wire

                    code, message = wire.exception_to_code(error), str(error)
                facts = {
                    "request_id": request.request_id,
                    "trace_id": trace.trace_id if trace is not None else 0,
                    "worker": worker,
                    "attempts": request.attempts,
                    "latency_s": latency,
                    "queue_wait_s": queue_wait,
                    "fix_fraction": float(fix_fraction),
                    "degraded": bool(degraded),
                    "error": code,
                    "error_message": message,
                }
                if self.journal is not None:
                    self._journal_request(
                        request, facts, outputs, dispatched_at is not None,
                        None if layouts is None else layouts[i],
                    )
            if request.pooled:
                # Terminal completion: recycle the request's staged input
                # buffer.  Every finish path first pops the request from its
                # owning structure (backlog task, pending map, retry heap), so
                # ownership is exclusive here, and nothing handed to the
                # caller aliases the staged rows.
                request.pooled = False
                self._bufpool.release(request.inputs)
            if sampled:
                trace.stamp(STAGE_COMPLETE, at=now)
                # Before the handle resolves: resolution wakes the net edge,
                # whose net_send stamp must not race into this record.
                # complete is therefore always the final stage on disk.
                self._export_trace(request, trace, facts)
            if error is not None:
                request.handle.set_exception(error)
            else:
                request.handle.set_result(ServeResult(
                    request_id=request.request_id,
                    outputs=outputs,
                    worker=worker,
                    queue_wait_s=queue_wait,
                    latency_s=latency,
                    fix_fraction=fix_fraction,
                    degraded=degraded,
                    trace_id=trace.trace_id if trace is not None else 0,
                ))
        # Last, so that ``drain`` returns only once the handles are resolved.
        with self._flight_cond:
            self._inflight -= len(requests)
            self._flight_cond.notify_all()
        self._g_inflight.set(self._inflight)

    def observe_stage(self, stage: str, duration: float) -> None:
        """Record one stage segment in ``rumba_stage_seconds``.

        Public hook for fronting edges (the TCP server) whose stages —
        ``net_recv`` / ``net_send`` — happen outside the core pipeline.
        """
        self._m_stage.labels(stage=stage, **self._labels).observe(duration)

    def _export_trace(
        self, request: ServeRequest, trace, facts: Dict[str, object]
    ) -> None:
        """Export one sampled trace: stage histograms and flight record.
        Tracing must never fail a request, so recorder I/O errors are
        swallowed."""
        events = trace.events()
        for stage, duration in segments(events):
            self.observe_stage(stage, duration)
        if self.flight_recorder is not None:
            t0 = events[0][1] if events else 0.0
            try:
                self.flight_recorder.record(dict(
                    facts,
                    v=FLIGHT_LOG_VERSION,
                    app=self.app_name,
                    scheme=self.scheme,
                    elements=request.n_elements,
                    stages=[[stage, at - t0] for stage, at in events],
                ))
            except OSError:  # pragma: no cover - disk full / fs races
                pass
        with self._traced_lock:
            self._traced_total += 1

    # ------------------------------------------------------------------ #
    # Health / stats                                                     #
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """The health endpoint: lifecycle, queues, degradation, workers.

        Everything here is also available as time series through the
        metrics registry; this is the structured point-in-time view a
        load balancer or operator would poll.
        """
        base_threshold = (
            float(self._prototype.tuner.threshold)
            if self._prototype is not None else 0.0
        )
        per_worker = []
        for name, alive, restarts, snap in self._transport.workers():
            batches, elements = self._shard_by_name[name].telemetry.counted
            per_worker.append({
                "worker": name,
                "batches": batches,
                "elements": elements,
                "invocations": int(snap.get("invocations", 0)),
                "threshold": float(snap.get("threshold", base_threshold)),
                "degradation_level": int(snap.get("degradation_level", 0)),
                "restarts": restarts,
                "alive": alive,
                "ensemble": snap.get("ensemble"),
            })
        degradation = 0 if self.controller is None else self.controller.level
        chaos_summary = (
            self.chaos_monkey.summary()
            if self.chaos_monkey is not None else None
        )
        with self._traced_lock:
            traced_total = self._traced_total
        tracing_summary = {
            "enabled": self.tracing.enabled,
            "sample_every": self.tracing.sample_every,
            "traced_requests": traced_total,
            "flight_log": self.config.tracing.flight_log_path,
            "flight_records": (
                self.flight_recorder.written
                if self.flight_recorder is not None else 0
            ),
        }
        journal_summary = None
        if self.journal is not None:
            journal_summary = {
                "path": self.journal.path,
                "records": self.journal.written,
                "rotations": self.journal.rotations,
            }
        return {
            "state": self._state,
            "app": self.app_name,
            "scheme": self.scheme,
            "backend": self.backend,
            "healthy": self._state == "running" and degradation == 0,
            "n_workers": self.n_workers,
            "inflight_requests": self._inflight,
            "admission_depth": len(self._admission),
            "admission_capacity": self._admission.capacity,
            "requests_offered": self._admission.offered,
            "requests_shed": self._admission.shed,
            "flushes": {r: int(c.value) for r, c in self._c_flushed.items()},
            "recovery_backlog": self._admission.backlog(),
            "degradation_level": degradation,
            "degraded": degradation > 0,
            "worker_restarts": sum(e["restarts"] for e in per_worker),
            "retries": self._retries_total,
            "retry_queue_depth": len(self._retry_heap),
            "cpu_hold": self._transport.cpu_hold,
            "chaos": chaos_summary,
            "tracing": tracing_summary,
            "journal": journal_summary,
            "workers": per_worker,
        }
