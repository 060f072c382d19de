"""End-to-end cluster-tier tests over in-process serving nodes.

Every node is a real :class:`NetServer` (sharing the session's trained
prototype via ``clone_shard``); the router, links, probes, eviction,
drain, and retry machinery all run exactly as in production — only the
node *processes* are in-process, which keeps these tests fast.  The
subprocess/SIGKILL drill lives in ``test_fleet_chaos.py``.
"""

from __future__ import annotations

import socket
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving.cluster.nodes import Node, NodeManager
from repro.observability.export import prometheus_text
from repro.observability.reqtrace import TracingPolicy
from repro.serving import (
    BatchingConfig,
    ClusterConfig,
    ClusterRouter,
    NetServer,
    RumbaClient,
    RumbaServer,
    ServerConfig,
    serve_cluster,
)
from tests.serving.cluster.fleet import burst_nodes, stats_document


def _config(**overrides) -> ServerConfig:
    base = dict(
        n_workers=1,
        batching=BatchingConfig(max_batch_requests=4,
                                flush_interval_s=0.002),
    )
    base.update(overrides)
    return ServerConfig(**base)


def _make_node(prototype, port: int = 0, node_id=None) -> NetServer:
    server = RumbaServer(prototype=prototype.clone_shard(),
                         config=_config())
    return NetServer(server, "127.0.0.1", port, node_id=node_id).start()


def _addr(net: NetServer) -> str:
    return f"{net.address[0]}:{net.address[1]}"


def _cluster_config(**overrides) -> ClusterConfig:
    base = dict(
        probe_interval_s=0.05,
        backoff_initial_s=0.2,
        backoff_max_s=2.0,
    )
    base.update(overrides)
    return ClusterConfig(**base)


@pytest.fixture()
def two_nodes(fft_prototype):
    nodes = [_make_node(fft_prototype) for _ in range(2)]
    yield nodes
    for node in nodes:
        try:
            node.stop()
        except Exception:
            pass


@pytest.fixture()
def router(two_nodes):
    r = serve_cluster(
        [_addr(n) for n in two_nodes],
        config=_cluster_config(),
        wait_for=2,
    )
    yield r
    r.stop()


@pytest.fixture()
def client(router):
    with RumbaClient(*router.address) as c:
        yield c


def _inputs(pool, n: int = 8) -> np.ndarray:
    return pool[:n]


class TestRouterFront:
    def test_welcome_is_protocol_compatible(self, client, two_nodes):
        assert client.welcome["server"] == "rumba-router"
        assert client.app == "fft"
        assert client.scheme == "treeErrors"
        assert client.features > 0
        cluster = client.welcome["cluster"]
        assert cluster == {"nodes": 2, "healthy": 2}

    def test_requests_spread_across_nodes(
        self, router, two_nodes, fft_input_pool
    ):
        # Held in flight together across two idle nodes, requests leave
        # neither node idle: each forward raises one ledger, so the
        # least-loaded pick alternates.
        answered = burst_nodes(router, _inputs(fft_input_pool), 10)
        assert set(answered) == {_addr(n) for n in two_nodes}

    def test_results_match_direct_node(
        self, client, two_nodes, fft_input_pool
    ):
        via_router = client.submit_wait(
            _inputs(fft_input_pool), deadline_s=30.0
        )
        with RumbaClient(*two_nodes[0].address) as direct:
            direct_result = direct.submit_wait(
                _inputs(fft_input_pool), deadline_s=30.0
            )
        np.testing.assert_allclose(
            via_router.outputs, direct_result.outputs
        )

    def test_fleet_stats_aggregate(
        self, client, router, fft_input_pool
    ):
        for _ in range(6):
            client.submit_wait(_inputs(fft_input_pool), deadline_s=30.0)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            doc = client.stats()
            if doc["nodes_reporting"] == 2 and (
                doc["aggregate"].get("requests_offered", 0) >= 6
            ):
                break
            time.sleep(0.05)
        assert doc["server"] == "rumba-cluster"
        assert doc["nodes_total"] == 2
        assert doc["nodes_reporting"] == 2
        assert doc["node_states"] == {"healthy": 2}
        # Counters sum across the fleet.
        assert doc["aggregate"]["requests_offered"] >= 6
        assert doc["aggregate"]["healthy"] is True
        assert len(doc["health"]) == 2
        for row in doc["health"].values():
            assert row["state"] == "healthy"
            assert row["node_id"]
        assert doc["router"]["requests_routed"] >= 6
        assert "policy" not in doc["router"]

    def test_router_stage_stamps_exported(
        self, two_nodes, fft_input_pool
    ):
        router = ClusterRouter(
            _cluster_config(nodes=tuple(_addr(n) for n in two_nodes)),
            tracing=TracingPolicy(sample_every=1),
        ).start()
        try:
            assert router.wait_for_nodes(2, timeout=10.0)
            with RumbaClient(*router.address) as client:
                client.submit_wait(
                    _inputs(fft_input_pool), deadline_s=30.0, trace=True
                )
            text = prometheus_text(router.registry)
            assert 'stage="router_forward"' in text
            assert "rumba_cluster_requests_total" in text
        finally:
            router.stop()


class TestDrain:
    def test_drain_completes_inflight_and_diverts(
        self, router, client, two_nodes, fft_input_pool
    ):
        target = _addr(two_nodes[0])
        handles = [
            client.submit(_inputs(fft_input_pool), deadline_s=30.0)
            for _ in range(12)
        ]
        assert router.drain(target, timeout=20.0) is True
        # Every request accepted before the drain still completes.
        assert all(h.result(30.0) is not None for h in handles)
        # New traffic only touches the survivor: a drained node gets none.
        after = burst_nodes(router, _inputs(fft_input_pool), 6)
        assert set(after) == {_addr(two_nodes[1])}
        # Undrain restores the pair.
        router.undrain(target)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and (
            len(router.manager.candidates()) < 2
        ):
            time.sleep(0.01)
        restored = burst_nodes(router, _inputs(fft_input_pool), 6)
        assert set(restored) == {_addr(n) for n in two_nodes}


class TestFailover:
    def test_node_death_retries_on_survivor_exactly_once(
        self, router, client, two_nodes, fft_input_pool
    ):
        handles = [
            client.submit(_inputs(fft_input_pool), deadline_s=30.0)
            for _ in range(12)
        ]
        two_nodes[1].stop()
        results = [h.result(30.0) for h in handles]
        # Exactly-once: every accepted request produced exactly one
        # result, none was lost to the killed node, none duplicated.
        assert len(results) == 12
        survivor = _addr(two_nodes[0])
        doc = stats_document(router)
        assert doc["router"]["requests_retried"] >= 0
        # Post-mortem traffic flows entirely to the survivor.
        post = client.submit_wait(_inputs(fft_input_pool), deadline_s=30.0)
        assert post.worker.startswith(survivor)

    def test_no_healthy_nodes_fails_fast(self, fft_prototype, fft_input_pool):
        node = _make_node(fft_prototype)
        router = serve_cluster(
            [_addr(node)],
            config=_cluster_config(
                failure_threshold=1,
                backoff_initial_s=30.0,
                backoff_max_s=60.0,
            ),
            wait_for=1,
        )
        try:
            node.stop()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and router.manager.candidates():
                time.sleep(0.05)
            assert not router.manager.candidates()
            with RumbaClient(*router.address) as client:
                started = time.monotonic()
                with pytest.raises(ServingError):
                    client.submit_wait(
                        _inputs(fft_input_pool), deadline_s=30.0
                    )
                # Fail-fast, not deadline-long.
                assert time.monotonic() - started < 5.0
        finally:
            router.stop()

    def test_eviction_then_readmission_after_backoff(
        self, fft_prototype, fft_input_pool
    ):
        node_a = _make_node(fft_prototype)
        node_b = _make_node(fft_prototype)
        addr_a, addr_b = _addr(node_a), _addr(node_b)
        router = serve_cluster(
            [addr_a, addr_b],
            config=_cluster_config(
                failure_threshold=2,
                backoff_initial_s=0.2,
                probe_timeout_s=2.0,
            ),
            wait_for=2,
        )
        try:
            port_a = node_a.address[1]
            node_a.stop()
            deadline = time.monotonic() + 15.0
            state = router.manager.nodes[addr_a]
            while time.monotonic() < deadline and state.state != "evicted":
                time.sleep(0.05)
            assert state.state == "evicted"
            assert state.evictions >= 1
            # An evicted node gets none of the traffic.
            assert set(burst_nodes(router, _inputs(fft_input_pool), 6)) == {
                addr_b
            }
            old_id = state.node_id
            # Same address, new process: restart detection must reset
            # the health record and the re-admission probe must bring
            # it back after the backoff elapses.
            node_a = _make_node(fft_prototype, port=port_a)
            assert router.wait_for_nodes(2, timeout=20.0)
            assert state.state == "healthy"
            assert state.node_id != old_id
            assert state.restarts_detected >= 1
            readmitted = burst_nodes(router, _inputs(fft_input_pool), 6)
            assert set(readmitted) == {addr_a, addr_b}
        finally:
            router.stop()
            for node in (node_a, node_b):
                try:
                    node.stop()
                except Exception:
                    pass


class _RecordingLink:
    """What ``_forward`` needs of a link: it is connected and it takes
    the entry, raising the node's ledger as ``NodeLink`` does."""

    connected = True

    def __init__(self, node):
        self.node, self.sent = node, []

    def send_request(self, entry, deadline_s):
        self.sent.append(entry)
        self.node.inflight += 1


class TestLeastLoaded:
    """The one routing rule, driven through ``ClusterRouter._forward`` on
    a router that was never started: no sockets, just ledgers."""

    def _router(self, **ledgers) -> ClusterRouter:
        router = ClusterRouter(ClusterConfig())
        for name, inflight in ledgers.items():
            node = Node(f"{name}:1")
            node.state, node.inflight = "healthy", inflight
            node.link = _RecordingLink(node)
            router.manager.nodes[node.name] = node
        return router

    def _forward(self, router) -> str:
        entry = SimpleNamespace(
            deadline_at=time.monotonic() + 30.0, attempts=0, trace=None,
            node_name="",
        )
        router._forward(entry)
        assert entry.attempts == 1
        return entry.node_name

    def test_picks_minimum_depth(self):
        assert self._forward(self._router(a=5, b=1, c=3)) == "b:1"

    def test_ties_break_by_name(self):
        assert self._forward(self._router(b=2, a=2)) == "a:1"

    def test_load_is_the_max_of_ledger_and_reported_depth(self):
        node = Node("a:1")
        node.inflight = 2
        assert node.load() == 2
        node.stats = {"inflight_requests": 5}  # other routers' traffic
        assert node.load() == 5
        node.stats = {"inflight_requests": 1}  # includes what we sent
        assert node.load() == 2
        # And the rule reads load(), not the ledger alone.
        router = self._router(a=0, b=1)
        router.manager.nodes["a:1"].stats = {"inflight_requests": 4}
        assert self._forward(router) == "b:1"

    def test_requests_held_in_flight_leave_no_node_idle(self):
        router = self._router(a=0, b=0)
        picks = [self._forward(router) for _ in range(6)]
        assert picks == ["a:1", "b:1"] * 3

    def test_draining_and_evicted_nodes_get_none(self):
        router = self._router(a=0, b=0, c=7)
        router.manager.nodes["a:1"].state = "draining"
        router.manager.nodes["b:1"].state = "evicted"
        assert [self._forward(router) for _ in range(3)] == ["c:1"] * 3


class TestStaticMembership:
    def test_no_membership_mutator_and_no_policy_leaf(self):
        for owner in (ClusterRouter, NodeManager):
            assert not hasattr(owner, "add_node")
            assert not hasattr(owner, "remove_node")
        with pytest.raises(TypeError):
            ClusterConfig(policy="least_loaded")
        with pytest.raises(TypeError):
            ClusterConfig(pool_size=2)
        with pytest.raises(TypeError):
            serve_cluster([], policy="least_loaded")

    def test_a_silent_member_does_not_delay_the_others(
        self, fft_prototype, fft_input_pool
    ):
        """The first address accepts and never sends a WELCOME.  Members
        dial concurrently, so the second is routable at once — not one
        ``probe_timeout_s`` later — and the silent one is evicted, then
        re-admitted once a real node answers there."""
        silent = socket.create_server(("127.0.0.1", 0))
        silent_port = silent.getsockname()[1]
        silent_addr = f"127.0.0.1:{silent_port}"
        node_b = _make_node(fft_prototype)
        node_a = None
        probe_timeout_s = 3.0
        started = time.monotonic()
        router = ClusterRouter(_cluster_config(
            nodes=(silent_addr, _addr(node_b)),
            probe_timeout_s=probe_timeout_s,
            failure_threshold=1,
        )).start()
        try:
            assert router.wait_for_nodes(1, timeout=probe_timeout_s)
            with RumbaClient(*router.address) as client:
                result = client.submit_wait(
                    _inputs(fft_input_pool), deadline_s=30.0
                )
            assert result.worker.startswith(_addr(node_b))
            assert time.monotonic() - started < probe_timeout_s / 2

            def health():
                return stats_document(router)["health"][silent_addr]

            deadline = time.monotonic() + 4 * probe_timeout_s
            while time.monotonic() < deadline and (
                health()["state"] != "evicted"
            ):
                time.sleep(0.05)
            row = health()
            assert row["state"] == "evicted" and row["evictions"] == 1
            assert row["backoff_s"] > 0 and row["links"] == 0
            # A node comes up behind the address: the probe loop that
            # evicted it re-admits it.
            silent.close()
            node_a = _make_node(fft_prototype, port=silent_port)
            assert router.wait_for_nodes(2, timeout=8 * probe_timeout_s)
            assert health()["state"] == "healthy"
        finally:
            router.stop()
            silent.close()
            for node in (node_a, node_b):
                if node is not None:
                    node.stop()


class TestLinkSendRegistration:
    """A link failure re-forwards an entry exactly once.

    Never "stranded by ``connection_lost`` *and* retried by the caller"
    — the same request forwarded to two nodes at once.  Sends are
    queued on a :class:`FrameWriter` and leave at the end of the loop
    tick, so the rule has a synchronous half (refused before
    registration: the caller retries) and a deferred half (registered,
    then stranded once by ``connection_lost``).
    """

    class _Transport:
        def __init__(self, closing=False, fail=False):
            self.closing, self.fail, self.writes = closing, fail, []

        def is_closing(self):
            return self.closing

        def write(self, data):
            if self.fail:
                raise ConnectionResetError("link died mid-write")
            self.writes.append(data)

    class _Loop:
        def __init__(self):
            self.ready = []

        def call_soon(self, callback, *args):
            self.ready.append((callback, args))

        def run_ready(self):
            ready, self.ready = self.ready, []
            for callback, args in ready:
                callback(*args)

    class _Manager:
        def __init__(self):
            self.stranded, self.links_down = [], 0

        def on_stranded(self, node, entries, error):
            self.stranded.append(list(entries))

        def note_link_down(self, node):
            self.links_down += 1

    class _Entry:
        def request_frame(self, request_id, deadline_s):
            return b"frame-%d" % request_id

    def _link(self, transport):
        from repro.serving.cluster.nodes import Node, NodeLink
        from repro.serving.net import protocol as wire

        node = Node("127.0.0.1:9")
        link = NodeLink(node, manager=self._Manager())
        loop = self._Loop()
        link.writer = wire.FrameWriter(
            transport, loop, on_error=link.connection_lost
        )
        link.connected = True
        return node, link, loop

    def test_sync_send_failure_leaves_entry_unregistered(self):
        """A send on an already-closing link must not register the entry."""
        node, link, loop = self._link(self._Transport(closing=True))
        with pytest.raises(ConnectionError):
            link.send_request(self._Entry(), 1.0)
        assert link.pending == {}
        assert node.inflight == 0
        assert loop.ready == []  # nothing queued, nothing to flush
        # The caller (router._forward) now owns the retry: its explicit
        # connection_lost finds nothing to strand.
        link.connection_lost(ConnectionResetError("closing"))
        assert link.manager.stranded == []

    def test_flush_failure_strands_queued_entries_exactly_once(self):
        node, link, loop = self._link(self._Transport(fail=True))
        entries = [self._Entry(), self._Entry()]
        for entry in entries:
            link.send_request(entry, 1.0)  # queued: no error yet
        assert node.inflight == 2 and len(link.pending) == 2
        loop.run_ready()  # the tick's flush raises
        assert link.manager.stranded == [entries]
        assert link.pending == {} and node.inflight == 0
        assert not link.connected
        # Later signals for the same dead link strand nothing more.
        link.connection_lost(ConnectionResetError("reader saw EOF"))
        link.close()
        loop.run_ready()
        assert link.manager.stranded == [entries]
        assert node.inflight == 0

    def test_queued_sends_leave_in_one_write_in_order(self):
        transport = self._Transport()
        node, link, loop = self._link(transport)
        ids = [link.send_request(self._Entry(), 1.0) for _ in range(3)]
        assert transport.writes == []
        loop.run_ready()
        assert transport.writes == [
            b"".join(b"frame-%d" % i for i in ids)
        ]
        assert node.inflight == 3
