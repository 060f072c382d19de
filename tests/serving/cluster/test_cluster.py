"""End-to-end cluster-tier tests over in-process serving nodes.

Every node is a real :class:`NetServer` (sharing the session's trained
prototype via ``clone_shard``); the router, links, probes, eviction,
drain, and retry machinery all run exactly as in production — only the
node *processes* are in-process, which keeps these tests fast.  The
subprocess/SIGKILL drill lives in ``test_fleet_chaos.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import ServingError
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


def _config(**overrides) -> ServerConfig:
    base = dict(
        n_workers=1,
        n_recovery_workers=1,
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
        policy="round_robin",
        probe_interval_s=0.05,
        pool_size=1,
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
        policy="round_robin",
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
        assert cluster["nodes"] == 2
        assert cluster["policy"] == "round_robin"

    def test_requests_spread_across_nodes(
        self, client, two_nodes, fft_input_pool
    ):
        handles = [
            client.submit(_inputs(fft_input_pool), deadline_s=30.0)
            for _ in range(10)
        ]
        nodes_seen = {
            h.result(30.0).worker.split("/", 1)[0] for h in handles
        }
        assert nodes_seen == {_addr(n) for n in two_nodes}

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
        assert doc["router"]["policy"] == "round_robin"

    def test_consistent_hash_sticks_to_one_node(
        self, two_nodes, fft_input_pool
    ):
        router = serve_cluster(
            [_addr(n) for n in two_nodes],
            policy="consistent_hash",
            config=_cluster_config(policy="consistent_hash"),
            wait_for=2,
        )
        try:
            with RumbaClient(*router.address) as client:
                handles = [
                    client.submit(_inputs(fft_input_pool), deadline_s=30.0)
                    for _ in range(8)
                ]
                nodes_seen = {
                    h.result(30.0).worker.split("/", 1)[0] for h in handles
                }
            assert len(nodes_seen) == 1
        finally:
            router.stop()

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
        # New traffic only touches the survivor.
        after = [
            client.submit(_inputs(fft_input_pool), deadline_s=30.0)
            for _ in range(6)
        ]
        nodes_seen = {
            h.result(30.0).worker.split("/", 1)[0] for h in after
        }
        assert nodes_seen == {_addr(two_nodes[1])}
        # Undrain restores the pair.
        router.undrain(target)
        deadline = time.monotonic() + 10.0
        seen = set()
        while time.monotonic() < deadline and len(seen) < 2:
            h = client.submit(_inputs(fft_input_pool), deadline_s=30.0)
            seen.add(h.result(30.0).worker.split("/", 1)[0])
        assert seen == {_addr(n) for n in two_nodes}


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
        doc = router.stats_document()
        assert doc["router"]["requests_retried"] >= 0
        # Post-mortem traffic flows entirely to the survivor.
        post = client.submit_wait(_inputs(fft_input_pool), deadline_s=30.0)
        assert post.worker.startswith(survivor)

    def test_no_healthy_nodes_fails_fast(self, fft_prototype, fft_input_pool):
        node = _make_node(fft_prototype)
        router = serve_cluster(
            [_addr(node)],
            policy="round_robin",
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
            policy="round_robin",
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
            old_id = state.node_id
            # Same address, new process: restart detection must reset
            # the health record and the re-admission probe must bring
            # it back after the backoff elapses.
            node_a = _make_node(fft_prototype, port=port_a)
            assert router.wait_for_nodes(2, timeout=20.0)
            assert state.state == "healthy"
            assert state.node_id != old_id
            assert state.restarts_detected >= 1
            with RumbaClient(*router.address) as client:
                seen = set()
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline and len(seen) < 2:
                    h = client.submit(
                        _inputs(fft_input_pool), deadline_s=30.0
                    )
                    seen.add(h.result(30.0).worker.split("/", 1)[0])
                assert seen == {addr_a, addr_b}
        finally:
            router.stop()
            for node in (node_a, node_b):
                try:
                    node.stop()
                except Exception:
                    pass


class TestFleetManagement:
    def test_add_and_remove_node_live(
        self, fft_prototype, fft_input_pool
    ):
        node_a = _make_node(fft_prototype)
        node_b = _make_node(fft_prototype)
        router = serve_cluster(
            [_addr(node_a)], policy="round_robin",
            config=_cluster_config(), wait_for=1,
        )
        try:
            router.add_node(_addr(node_b))
            assert router.wait_for_nodes(2, timeout=10.0)
            router.remove_node(_addr(node_a))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and (
                _addr(node_a) in router.manager.nodes
            ):
                time.sleep(0.02)
            with RumbaClient(*router.address) as client:
                result = client.submit_wait(
                    _inputs(fft_input_pool), deadline_s=30.0
                )
            assert result.worker.startswith(_addr(node_b))
        finally:
            router.stop()
            node_a.stop()
            node_b.stop()


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
        def request_frame(self, request_id, deadline_s, version):
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
