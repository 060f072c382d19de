"""The cluster gateway: one listening address in front of N nodes.

:class:`ClusterRouter` speaks the binary protocol of
``docs/protocol.md`` on *both* faces.  Clients connect to it exactly as
they would to a single :class:`~repro.serving.net.server.NetServer` —
same WELCOME, same REQUEST/RESULT/ERROR/STATS frames, same
:class:`~repro.serving.net.client.RumbaClient` — while the router
forwards each validated request over one multiplexed backend
connection per node to the routable node with the fewest requests in
flight (``Node.load()``, ties by name) — the one routing rule.  REQUEST
and RESULT bodies are *relayed*, not decoded: ``peek_*`` validates the
whole body in place and ``relay_*`` rewrites only the fields a gateway
owns (``docs/cluster.md`` lists the patch points), so the float64
blocks are never copied or parsed here.

Reliability model (the node-level mirror of the serving core's
worker-crash story):

* every forwarded request keeps an absolute deadline
  (``deadline_at``).  Requests arriving without a client deadline get
  the router's ``default_deadline_s`` as their budget;
* when a backend link dies or a node answers with a *retryable* error
  (worker crash, overload), the request is re-forwarded — with its
  **remaining** deadline — to a surviving node, at most
  ``max_retries`` times.  An accepted request is therefore never lost
  to a killed node, and each client request completes exactly once:
  the pending entry is delivered (result or error) a single time, no
  matter how many forwards it took;
* with no healthy node in the member set, requests fail fast with
  :class:`~repro.errors.NoHealthyNodesError`.

Health, eviction, backoff re-admission, and restart detection live in
:class:`~repro.serving.cluster.nodes.NodeManager`; the router wires its
events into ``rumba_cluster_*`` metrics.  A client STATS frame is
answered with the *fleet* document of
:func:`~repro.serving.cluster.stats.aggregate_fleet_stats` — summed
counters, merged histograms, per-node health — so one probe sees the
whole tier.

Each request's gateway hops are stamped as the ``router_recv`` /
``router_forward`` trace stages (the fleet-level prefix of the stage
waterfall in ``docs/observability.md``), and the client's trace id is
propagated downstream so node-side records correlate by id.

Listening, lifecycle and framing are
:class:`~repro.serving.net.server.FrameListener`'s, shared with
:class:`NetServer`: the event loop runs on one background thread
(``rumba-cluster-loop``), so ``start()`` / ``stop()`` / ``drain()``
are ordinary blocking calls.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from concurrent import futures
from typing import Dict, Optional, Tuple

from repro.errors import (
    NoHealthyNodesError,
    ProtocolError,
    ServingError,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.reqtrace import (
    STAGE_ROUTER_FORWARD,
    STAGE_ROUTER_RECV,
    TracingPolicy,
)
from repro.serving.cluster.nodes import NodeManager
from repro.serving.cluster.stats import aggregate_fleet_stats
from repro.serving.config import ClusterConfig
from repro.serving.net import protocol as wire
from repro.serving.net.server import ClientConnection, FrameListener

__all__ = ["ClusterRouter"]

#: Wire error codes worth a second chance on a different node.
_RETRYABLE_CODES = (wire.ERR_WORKER_CRASH, wire.ERR_OVERLOADED)


class _PendingEntry:
    """One accepted client request while the fleet works on it."""

    __slots__ = (
        "conn", "client_id", "body", "view",
        "deadline_at", "trace", "trace_id",
        "attempts", "node_name", "received_at",
    )

    def __init__(
        self, conn, frame, view, deadline_at, trace, trace_id, received_at,
    ):
        self.conn = conn
        self.client_id = frame.request_id
        self.body = frame.body                # relayed, never decoded
        self.view = view                      # its validated layout
        self.deadline_at = deadline_at        # absolute retry budget
        self.trace = trace
        self.trace_id = trace_id
        self.attempts = 0                     # forwards so far
        self.node_name = ""                   # last node it went to
        self.received_at = received_at

    def request_frame(self, request_id, deadline_s) -> bytes:
        """The REQUEST frame for one forward (what a NodeLink sends)."""
        return wire.relay_request(
            self.body, self.view, request_id, deadline_s, self.trace_id
        )


class ClusterRouter(FrameListener):
    """Route clients across a fleet of ``NetServer`` nodes.

    Parameters
    ----------
    config:
        :class:`~repro.serving.config.ClusterConfig` — member addresses,
        probe cadence, eviction/backoff/retry knobs.
    host, port:
        Client-facing listen address (port 0 binds ephemeral; read
        :attr:`address` after :meth:`start`).
    registry:
        Metrics registry for the ``rumba_cluster_*`` family; a private
        one by default.
    tracing:
        Sampling policy for gateway-side stage stamps (1/64 default).
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        tracing: Optional[TracingPolicy] = None,
    ):
        self.config = config or ClusterConfig()
        super().__init__(host, port, wire.DEFAULT_MAX_FRAME_BYTES)
        self.registry = registry or MetricsRegistry()
        self.tracing = tracing or TracingPolicy()
        self.manager = NodeManager(
            self.config,
            on_reply=self._on_backend_reply,
            on_stranded=self._on_stranded,
            on_node_event=self._on_node_event,
        )
        self.router_id = uuid.uuid4().hex
        self._requests_routed = 0
        self._requests_retried = 0
        self._build_metrics()
        self._refresh_fleet()

    # ------------------------------------------------------------------ #
    # Metrics                                                            #
    # ------------------------------------------------------------------ #
    def _build_metrics(self) -> None:
        r = self.registry
        self._m_requests = r.counter(
            "rumba_cluster_requests_total",
            "Routed requests by node and outcome", ("node", "outcome"),
        )
        self._m_retries = r.counter(
            "rumba_cluster_retries_total",
            "Requests re-forwarded to a surviving node", ("reason",),
        )
        self._m_evictions = r.counter(
            "rumba_cluster_evictions_total",
            "Nodes evicted from rotation", ("node",),
        )
        self._m_probes = r.counter(
            "rumba_cluster_probes_total",
            "Health probes by outcome", ("outcome",),
        )
        self._m_nodes = r.gauge(
            "rumba_cluster_nodes",
            "Fleet members by lifecycle state", ("state",),
        )
        self._m_inflight = r.gauge(
            "rumba_cluster_inflight_requests",
            "Client requests accepted but not yet answered",
        )
        # Accept-to-answer time at the gateway; rides the fine bucket
        # grid via the registry's rumba_cluster_* override.
        self._m_request_seconds = r.histogram(
            "rumba_cluster_request_seconds",
            "Router-side time from request decode to response enqueue",
        )
        # Same family/labels as the serving core so fleet and node
        # stage segments land in one waterfall-compatible histogram.
        self._m_stage = r.histogram(
            "rumba_stage_seconds",
            "Per-stage latency segments from sampled request traces",
            ("app", "scheme", "stage"),
        )
        self._m_rejected = self._m_requests.labels(node="", outcome="rejected")
        self._node_outcomes: Dict[str, Tuple[object, object]] = {}

    def _outcomes(self, node_name: str):
        """One node's (completed, failed) request counters, bound once."""
        pair = self._node_outcomes.get(node_name)
        if pair is None:
            pair = self._node_outcomes[node_name] = (
                self._m_requests.labels(node=node_name, outcome="completed"),
                self._m_requests.labels(node=node_name, outcome="failed"),
            )
        return pair

    def _refresh_fleet(self) -> None:
        """Cache the fleet's WELCOME fields; runs when one arrives,
        never per request."""
        welcomes = [node.welcome for node in self.manager.nodes.values()]

        def first(key, default):
            return next((w[key] for w in welcomes if w.get(key)), default)

        self._fleet_app = str(first("app", ""))
        self._fleet_scheme = str(first("scheme", ""))
        self._fleet_features = int(first("features", 0))

    # ------------------------------------------------------------------ #
    # Lifecycle (FrameListener's; the loop also runs the NodeManager)    #
    # ------------------------------------------------------------------ #
    _thread_name = "rumba-cluster-loop"

    async def _loop_started(self) -> None:
        # Members connect in the background; wait_for_nodes is how a
        # caller learns that enough of them are routable.
        self.manager.start()

    async def _loop_stopping(self) -> None:
        await self.manager.stop()

    def wait_for_nodes(self, count: int = 1, timeout: float = 30.0) -> bool:
        """Block until ``count`` nodes are routable (True) or timeout."""

        async def _routable_count() -> int:
            # Membership and link state are loop-owned; counting them on
            # the loop avoids iterating dicts the loop is mutating.
            return len(self.manager.candidates())

        deadline = time.monotonic() + timeout
        while True:
            ready = 0
            if self._loop is not None and self.is_running:
                try:
                    ready = self._call_on_loop(_routable_count(), timeout=5.0)
                except (ServingError, RuntimeError,
                        futures.TimeoutError):
                    ready = 0  # router stopping, or the loop is wedged
            if ready >= count:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)

    # ------------------------------------------------------------------ #
    # Thread-safe fleet management surface                               #
    # ------------------------------------------------------------------ #
    def _call_on_loop(self, coro, timeout: float):
        if self._loop is None or not self.is_running:
            raise ServingError("ClusterRouter is not running")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)

    def drain(self, node: str, timeout: float = 30.0) -> bool:
        """Stop routing to ``node``; block until its in-flight drains.

        The first step of the rolling-restart runbook in
        ``docs/cluster.md``: drain, restart the process, let restart
        detection and the re-admission probe bring it back, then
        :meth:`undrain` (a restarted node re-admits as healthy on its
        own).  Returns False if in-flight work outlived ``timeout``.
        """
        return self._call_on_loop(
            self.manager.drain(node, timeout), timeout=timeout + 5.0
        )

    def undrain(self, node: str) -> None:
        """Return a drained node to rotation."""
        if self._loop is not None and self.is_running:
            self._loop.call_soon_threadsafe(self.manager.undrain, node)

    # ------------------------------------------------------------------ #
    # Request path                                                       #
    # ------------------------------------------------------------------ #
    def _on_request(self, conn: ClientConnection, frame: wire.Frame) -> None:
        received_at = time.monotonic()
        try:
            view = wire.peek_request(frame.body)
        except ProtocolError as exc:
            self._m_rejected.inc()
            conn.send_error(frame.request_id, wire.ERR_PROTOCOL, str(exc))
            return
        trace = self.tracing.new_trace(
            trace_id=view.trace_id,
            force=True if view.force_sample else None,
        )
        if trace is not None:
            trace.stamp(STAGE_ROUTER_RECV, at=received_at)
        entry = _PendingEntry(
            conn, frame, view,
            deadline_at=received_at + (
                view.deadline_s if view.deadline_s is not None
                else self.config.default_deadline_s
            ),
            trace=trace,
            trace_id=trace.trace_id if trace is not None else view.trace_id,
            received_at=received_at,
        )
        conn.outstanding.add(entry.client_id)
        self._inflight += 1
        self._m_inflight.set(self._inflight)
        self._forward(entry)

    def _forward(self, entry: _PendingEntry) -> None:
        """Pick a node and send the request; fail the entry if we can't."""
        remaining = entry.deadline_at - time.monotonic()
        if remaining <= 0:
            self._deliver_error(entry, wire.ERR_SERVING, (
                f"deadline exhausted after {entry.attempts} "
                f"forwarding attempt(s)"
            ))
            return
        candidates = self.manager.candidates()
        if not candidates:
            self._deliver_error(entry, wire.ERR_SERVING, str(
                NoHealthyNodesError(
                    "no healthy node to route to "
                    f"({len(self.manager.nodes)} configured)"
                )
            ))
            return
        # The one routing rule: least loaded, ties by name (so the choice
        # is deterministic under test).  A candidate's link is connected.
        link = min(candidates, key=lambda n: (n.load(), n.name)).link
        try:
            link.send_request(entry, remaining)
        except (ConnectionError, OSError) as exc:
            # Synchronous send failure: the link was already closing.
            # send_request registers the entry in ``pending`` only once
            # the frame is queued, so connection_lost below cannot
            # strand it into the retry path — this call is its single
            # redelivery.  (A failure at the deferred flush reaches every
            # queued entry through connection_lost instead, also once.)
            link.connection_lost(exc)
            self._retry_or_fail(entry, "connection_lost", str(exc))
            return
        entry.attempts += 1
        entry.node_name = link.node.name
        self._requests_routed += 1
        if entry.trace is not None:
            forwarded_at = entry.trace.stamp(
                STAGE_ROUTER_FORWARD, clamp=True
            )
            if entry.trace.sampled:
                events = entry.trace.events()
                if len(events) >= 2:
                    self._m_stage.labels(
                        app=self._fleet_app, scheme=self._fleet_scheme,
                        stage=STAGE_ROUTER_FORWARD,
                    ).observe(forwarded_at - events[-2][1])

    def _can_retry(self, entry: _PendingEntry) -> bool:
        return (
            entry.attempts <= self.config.max_retries
            and entry.deadline_at - time.monotonic() > 0
            and bool(self.manager.candidates())
        )

    def _retry_or_fail(
        self, entry: _PendingEntry, reason: str, message: str
    ) -> None:
        if entry.conn.closed or entry.client_id not in entry.conn.outstanding:
            return  # client went away; nothing to deliver or retry for
        if self._can_retry(entry):
            self._requests_retried += 1
            self._m_retries.labels(reason=reason).inc()
            self._forward(entry)
            return
        code = (
            wire.ERR_WORKER_CRASH if reason == "connection_lost"
            else wire.ERR_OVERLOADED
        )
        self._deliver_error(entry, code, (
            f"{message} (after {entry.attempts} forwarding attempt(s))"
        ))

    # -- backend callbacks (from NodeManager, on the loop) ------------- #
    def _on_backend_reply(self, link, entry: _PendingEntry, frame) -> None:
        if frame.frame_type == wire.FT_RESULT:
            self._deliver_result(entry, frame)
            return
        if frame.frame_type == wire.FT_ERROR:
            try:
                code, message = wire.unpack_error(frame.body)
            except ProtocolError as exc:
                code, message = wire.ERR_PROTOCOL, str(exc)
            if code in _RETRYABLE_CODES:
                reason = (
                    "connection_lost" if code == wire.ERR_WORKER_CRASH
                    else "overloaded"
                )
                self._retry_or_fail(entry, reason, message)
            else:
                self._deliver_error(entry, code, message)
            return
        self._deliver_error(entry, wire.ERR_PROTOCOL, (
            f"node {link.node.name} answered with an unexpected "
            f"{frame.type_name} frame"
        ))

    def _on_stranded(self, node, entries, error) -> None:
        for entry in entries:
            self._retry_or_fail(entry, "connection_lost", str(error))

    def _on_node_event(self, event: str, node) -> None:
        if event == "welcome":
            self._refresh_fleet()
        elif event == "evicted":
            self._m_evictions.labels(node=node.name).inc()
        elif event == "probe_ok":
            self._m_probes.labels(outcome="ok").inc()
        elif event == "probe_failed":
            self._m_probes.labels(outcome="failed").inc()
        for state, count in self.manager.states().items():
            self._m_nodes.labels(state=state).set(count)

    # -- delivery (exactly once per client request) -------------------- #
    def _finish(self, entry: _PendingEntry) -> bool:
        """Claim the single delivery of this entry; False if already done."""
        conn = entry.conn
        if conn.closed or entry.client_id not in conn.outstanding:
            return False
        conn.outstanding.discard(entry.client_id)
        self._inflight -= 1
        self._m_inflight.set(self._inflight)
        self._m_request_seconds.observe(
            time.monotonic() - entry.received_at
        )
        return True

    def _deliver_result(self, entry: _PendingEntry, frame) -> None:
        if not self._finish(entry):
            return
        completed, failed = self._outcomes(entry.node_name)
        try:
            # The worker name gains a node prefix so a client (and the
            # chaos drill) can see which fleet member answered.
            blob = wire.relay_result(
                frame.body, wire.peek_result(frame.body),
                entry.client_id, f"{entry.node_name}/", entry.trace_id,
            )
        except ProtocolError as exc:  # malformed node reply
            failed.inc()
            entry.conn.send_error(entry.client_id, wire.ERR_PROTOCOL, str(exc))
            return
        completed.inc()
        entry.conn.frames.write(blob)

    def _deliver_error(
        self, entry: _PendingEntry, code: int, message: str
    ) -> None:
        if not self._finish(entry):
            return
        self._outcomes(entry.node_name)[1].inc()
        entry.conn.send_error(entry.client_id, code, message)

    # ------------------------------------------------------------------ #
    # Documents                                                          #
    # ------------------------------------------------------------------ #
    def _welcome_document(self) -> dict:
        return dict(
            super()._welcome_document(),
            server="rumba-router",
            app=self._fleet_app,
            scheme=self._fleet_scheme,
            backend="cluster",
            features=self._fleet_features,
            node_id=self.router_id,
            cluster={
                "nodes": len(self.manager.nodes),
                "healthy": self.manager.states().get("healthy", 0),
            },
        )

    def _router_section(self) -> dict:
        return {
            "listen": list(self._bound) if self._bound else None,
            "open_connections": self._open_connections,
            "inflight_requests": self._inflight,
            "requests_routed": self._requests_routed,
            "requests_retried": self._requests_retried,
        }

    def _stats_document(self) -> dict:
        return aggregate_fleet_stats(
            nodes=list(self.manager.nodes.values()),
            router=self._router_section(),
        )
