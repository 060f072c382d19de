"""Fleet membership: node links and the health supervisor.

This is the PR 4 worker supervisor pattern lifted one level up: where
the :class:`~repro.serving.procpool.ProcessWorkerPool` watches worker
*processes* and restarts them in place, the :class:`NodeManager` watches
whole ``NetServer`` *nodes* over TCP and manages the member set the
router routes across:

* the member set is ``ClusterConfig.nodes``, fixed at start; every
  node gets one multiplexed connection (:class:`NodeLink`) carrying
  forwarded requests and health probes;
* a probe loop sends a STATS frame to every node each
  ``probe_interval_s`` — the reply doubles as the load signal for
  least-loaded routing;
* ``failure_threshold`` consecutive probe/connect failures **evict** a
  node (its link closes; stranded requests go back to the router's
  retry path), and re-admission probes back off exponentially
  (``backoff_initial_s`` → ``backoff_max_s``) until one succeeds;
* the WELCOME document's ``node_id`` / ``started_at_monotonic`` pair
  identifies one process lifetime, so a *restarted* node behind the same
  address is recognized and its failure/backoff state reset instead of
  serving a stale eviction sentence;
* :meth:`NodeManager.drain` flips a node to ``draining`` — the router
  stops selecting it, in-flight work completes — which is the building
  block of the rolling-restart runbook in ``docs/cluster.md``.

Everything in this module runs on the router's event loop; the only
thread-safe surface is the router's, which hops in via
``call_soon_threadsafe`` / ``run_coroutine_threadsafe``.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Callable, Dict, List, Optional

from repro.errors import ConnectionLostError, ProtocolError, ServingError
from repro.serving.net import protocol as wire

__all__ = ["Node", "NodeLink", "NodeManager"]

#: Node lifecycle states surfaced in fleet stats.
STATE_NEW = "new"
STATE_HEALTHY = "healthy"
STATE_DRAINING = "draining"
STATE_EVICTED = "evicted"


class NodeLink:
    """The multiplexed connection from the router to one node.

    Carries both forwarded REQUEST frames (pending entries owned by the
    router) and STATS health probes (plain futures).  Event-loop only.
    """

    def __init__(self, node: "Node", manager: "NodeManager"):
        self.node = node
        self.manager = manager
        self._stream = None                   # asyncio StreamWriter
        self.writer: Optional[wire.FrameWriter] = None
        self.welcome: dict = {}
        self.connected = False
        self.pending: Dict[int, object] = {}  # backend id -> entry | Future
        self._ids = itertools.count(1)        # backend request ids
        self._reader_task: Optional[asyncio.Task] = None

    async def connect(self, timeout: float) -> dict:
        """Dial the node, read and check its WELCOME, start the reader."""
        host, port = self.node.address
        reader, self._stream = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout
        )
        buffer = wire.FrameBuffer()
        try:
            self.welcome = await asyncio.wait_for(
                wire._read_welcome(reader, buffer), timeout=timeout
            )
        except BaseException:
            self._stream.close()
            raise
        self.writer = wire.FrameWriter(
            self._stream.transport, asyncio.get_running_loop(),
            on_error=self.connection_lost,
        )
        self.connected = True
        self._reader_task = asyncio.ensure_future(
            self._reader_loop(reader, buffer)
        )
        return self.welcome

    async def _reader_loop(self, reader, buffer: wire.FrameBuffer) -> None:
        try:
            await wire.read_frames(reader, buffer, self._on_frame)
            raise ConnectionError("node closed the connection")
        except (ConnectionError, OSError, ProtocolError) as exc:
            self.connection_lost(exc)

    def _on_frame(self, frame: wire.Frame) -> None:
        holder = self.pending.pop(frame.request_id, None)
        if holder is None:
            return  # reply for a request the router gave up on
        if isinstance(holder, asyncio.Future):
            if not holder.done():
                holder.set_result(frame)
        else:
            self.node.inflight -= 1
            self.manager.on_reply(self, holder, frame)

    def connection_lost(self, cause: BaseException) -> None:
        """Fail probes, strand entries back to the router's retry path.

        Every way a link dies ends here (reader EOF or error, a failed
        flush, a refused send, :meth:`close`); swapping ``pending`` out
        makes the stranding happen exactly once.
        """
        if self._stream is not None:
            self._stream.close()
        if not self.connected and not self.pending:
            return
        self.connected = False
        pending, self.pending = self.pending, {}
        stranded = []
        error = ConnectionLostError(
            f"connection to node {self.node.name} was lost: {cause}"
        )
        for holder in pending.values():
            if isinstance(holder, asyncio.Future):
                if not holder.done():
                    holder.set_exception(error)
            else:
                stranded.append(holder)
        if stranded:
            self.node.inflight -= len(stranded)
            self.manager.on_stranded(self.node, stranded, error)
        self.manager.note_link_down(self.node)

    def send_request(self, entry, deadline_s: float) -> int:
        """Queue one forward of ``entry``; returns the backend id.

        The frame is ``entry.request_frame(backend_id, deadline_s)`` and
        leaves with the rest of this loop tick's frames.
        A closing link refuses *before* registering the entry, so
        connection_lost cannot strand it into the retry path a second
        time — the caller owns the single retry on that failure.  Once
        registered, a reply or connection_lost claims it.
        """
        if self.writer.is_closing():
            raise ConnectionResetError(
                f"link to node {self.node.name} is closing"
            )
        backend_id = next(self._ids)
        self.writer.write(entry.request_frame(backend_id, deadline_s))
        self.pending[backend_id] = entry
        self.node.inflight += 1
        return backend_id

    async def roundtrip_stats(self, timeout: float) -> dict:
        """One STATS probe over this link (also the health check)."""
        backend_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self.pending[backend_id] = future
        self.writer.write(wire.encode_frame(wire.FT_STATS, backend_id))
        try:
            frame = await asyncio.wait_for(future, timeout=timeout)
        except asyncio.TimeoutError:
            self.pending.pop(backend_id, None)
            raise
        if frame.frame_type != wire.FT_STATS_RESULT:
            raise ProtocolError(
                f"expected STATS_RESULT from {self.node.name}, "
                f"got {frame.type_name}"
            )
        return wire.unpack_json(frame.body)

    def close(self) -> None:
        self.connected = False
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        self.connection_lost(ServingError("link closed"))


class Node:
    """One fleet member: address, identity, health, and its link."""

    def __init__(self, address_spec):
        self.address = wire.parse_address(address_spec)
        self.name = f"{self.address[0]}:{self.address[1]}"
        self.state = STATE_NEW
        self.link: Optional[NodeLink] = None
        self.welcome: dict = {}
        self.node_id = ""
        self.started_at: Optional[float] = None
        self.stats: dict = {}
        self.inflight = 0                # router-side forwarded, unanswered
        self.consecutive_failures = 0
        self.evictions = 0
        self.restarts_detected = 0
        self.backoff_s = 0.0
        self.readmit_at = 0.0            # monotonic; 0 = probe immediately
        self.probe_failures = 0
        self.probe_successes = 0

    # ------------------------------------------------------------------ #
    # Selection surface (what the router's routing rule sees)            #
    # ------------------------------------------------------------------ #
    def load(self) -> int:
        """In-flight depth: router ledger + the node's own last report."""
        reported = int(self.stats.get("inflight_requests", 0) or 0)
        # The node's report includes what we forwarded; take the max so
        # double counting never inverts a least-loaded decision.
        return max(self.inflight, reported)

    @property
    def connected(self) -> bool:
        return self.link is not None and self.link.connected

    def routable(self) -> bool:
        return self.state == STATE_HEALTHY and self.connected

    def close_link(self) -> None:
        link, self.link = self.link, None
        if link is not None:
            link.close()

    def health_document(self) -> dict:
        """This node's row of the fleet stats health section."""
        return {
            "address": self.name,
            "node_id": self.node_id,
            "state": self.state,
            "links": int(self.connected),
            "inflight": self.inflight,
            "reported_inflight": int(
                self.stats.get("inflight_requests", 0) or 0
            ),
            "consecutive_failures": self.consecutive_failures,
            "evictions": self.evictions,
            "restarts_detected": self.restarts_detected,
            "backoff_s": self.backoff_s,
            "probe_successes": self.probe_successes,
            "probe_failures": self.probe_failures,
        }


class NodeManager:
    """Supervises the member set on the router's event loop.

    Parameters
    ----------
    config:
        The :class:`~repro.serving.config.ClusterConfig` (probe cadence,
        failure threshold, backoff bounds).
    on_reply:
        ``(link, entry, frame)`` — a forwarded request's RESULT/ERROR
        arrived; the router delivers (or retries) it.
    on_stranded:
        ``(node, entries, error)`` — a link died with these forwarded
        requests unanswered; the router's retry path owns them now.
    on_node_event:
        ``(event, node)`` — observability hook (``welcome``,
        ``evicted``, ``readmitted``, ``restart_detected``, ``probe_ok``,
        ``probe_failed``, ``drained``); the router exports metrics and
        re-reads the fleet's WELCOME fields.
    """

    def __init__(
        self,
        config,
        on_reply: Callable,
        on_stranded: Callable,
        on_node_event: Optional[Callable] = None,
    ):
        self.config = config
        self.on_reply = on_reply
        self.on_stranded = on_stranded
        self.on_node_event = on_node_event or (lambda event, node: None)
        self.nodes: Dict[str, Node] = {}
        self._probe_task: Optional[asyncio.Task] = None
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Fix the member set and start supervising it.

        ``config.nodes`` is the membership for this manager's lifetime.
        An address whose node is not up yet fails its probes, is evicted
        and is re-admitted with backoff once it answers.
        """
        for spec in self.config.nodes:
            node = Node(spec)
            self.nodes.setdefault(node.name, node)
        self._probe_task = asyncio.ensure_future(self._probe_loop())

    async def stop(self) -> None:
        self._stopped = True
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        for node in self.nodes.values():
            node.close_link()

    # ------------------------------------------------------------------ #
    # Connection management                                              #
    # ------------------------------------------------------------------ #
    async def _try_connect(self, node: Node) -> bool:
        """Dial the node if its link is down; False on failure."""
        if not node.connected:
            link = NodeLink(node, self)
            try:
                welcome = await link.connect(self.config.probe_timeout_s)
            except (ConnectionError, OSError, ProtocolError,
                    asyncio.TimeoutError) as exc:
                self._record_failure(node, exc)
                return False
            node.link = link
            self._note_welcome(node, welcome)
        if node.state in (STATE_NEW, STATE_EVICTED):
            readmitted = node.state == STATE_EVICTED
            node.state = STATE_HEALTHY
            node.consecutive_failures = 0
            node.backoff_s = 0.0
            node.readmit_at = 0.0
            if readmitted:
                self.on_node_event("readmitted", node)
        return True

    def _note_welcome(self, node: Node, welcome: dict) -> None:
        """Track node identity; a changed identity means a restart."""
        new_id = str(welcome.get("node_id", ""))
        new_start = welcome.get("started_at_monotonic")
        restarted = bool(node.node_id) and (
            new_id != node.node_id
            or (node.started_at is not None and new_start != node.started_at)
        )
        node.welcome = welcome
        node.node_id = new_id
        node.started_at = new_start
        self.on_node_event("welcome", node)
        if restarted:
            # Same address, new incarnation: its health history belongs
            # to the dead process, not this one.
            node.restarts_detected += 1
            node.consecutive_failures = 0
            node.backoff_s = 0.0
            node.readmit_at = 0.0
            node.stats = {}
            self.on_node_event("restart_detected", node)

    def note_link_down(self, node: Node) -> None:
        """A link died outside a probe; treat it as one failure signal."""
        if self._stopped:
            return
        if node.state in (STATE_HEALTHY, STATE_DRAINING):
            self._record_failure(node, ConnectionError("link lost"))

    def _record_failure(self, node: Node, cause: BaseException) -> None:
        node.consecutive_failures += 1
        node.probe_failures += 1
        self.on_node_event("probe_failed", node)
        if node.state == STATE_EVICTED:
            # Failed re-admission probe: back off further.
            node.backoff_s = min(
                node.backoff_s * 2.0 or self.config.backoff_initial_s,
                self.config.backoff_max_s,
            )
            node.readmit_at = time.monotonic() + node.backoff_s
            return
        if node.consecutive_failures >= self.config.failure_threshold:
            self.evict(node, reason=str(cause))

    def evict(self, node: Node, reason: str = "") -> None:
        """Remove a node from rotation; its link closes, strands retry."""
        if node.state == STATE_EVICTED:
            return
        node.state = STATE_EVICTED
        node.evictions += 1
        node.backoff_s = self.config.backoff_initial_s
        node.readmit_at = time.monotonic() + node.backoff_s
        node.stats = {}
        self.on_node_event("evicted", node)
        node.close_link()

    # ------------------------------------------------------------------ #
    # Probing                                                            #
    # ------------------------------------------------------------------ #
    async def _probe_loop(self) -> None:
        # All members dial at once: an address that accepts and never
        # answers costs one probe timeout, not one per member behind it.
        await asyncio.gather(*map(self._try_connect, self.nodes.values()))
        while not self._stopped:
            await asyncio.sleep(self.config.probe_interval_s)
            await self.probe_all()

    async def probe_all(self) -> None:
        """One probe sweep over the member set (also test-callable)."""
        for node in list(self.nodes.values()):
            if self._stopped:
                return
            if (
                node.state == STATE_EVICTED
                and time.monotonic() < node.readmit_at
            ):
                continue  # still backing off
            await self.probe_node(node)

    async def probe_node(self, node: Node) -> bool:
        """One WELCOME/STATS health probe; updates the load signal."""
        if not await self._try_connect(node):
            return False
        try:
            node.stats = await node.link.roundtrip_stats(
                self.config.probe_timeout_s
            )
        except (ConnectionLostError, ProtocolError,
                asyncio.TimeoutError) as exc:
            self._record_failure(node, exc)
            return False
        node.consecutive_failures = 0
        node.probe_successes += 1
        self.on_node_event("probe_ok", node)
        return True

    # ------------------------------------------------------------------ #
    # Routing / draining surface                                         #
    # ------------------------------------------------------------------ #
    def candidates(self) -> List[Node]:
        """Nodes the router may route to right now."""
        return [node for node in self.nodes.values() if node.routable()]

    def states(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes.values():
            counts[node.state] = counts.get(node.state, 0) + 1
        return counts

    async def drain(self, name: str, timeout: float) -> bool:
        """Stop routing to a node and wait for its in-flight to finish.

        Returns True when the node went idle within ``timeout``.  The
        node stays ``draining`` (link open, probes continue) until
        :meth:`undrain` or :meth:`evict` — a rolling restart drains,
        restarts the process, then relies on restart detection plus
        re-admission to bring the new incarnation back.
        """
        node = self.nodes.get(name)
        if node is None:
            raise ServingError(f"unknown node {name!r}")
        if node.state == STATE_HEALTHY:
            node.state = STATE_DRAINING
        deadline = time.monotonic() + timeout
        while node.inflight > 0:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.01)
        self.on_node_event("drained", node)
        return True

    def undrain(self, name: str) -> None:
        node = self.nodes.get(name)
        if node is not None and node.state == STATE_DRAINING:
            node.state = STATE_HEALTHY
