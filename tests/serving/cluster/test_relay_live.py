"""The byte relay through a live router: interop and hostile peers.

The router validates what it relays.  A client that lies about its
body, and a node that lies about its reply, must each end as one typed
ERROR frame for that request and nothing left in flight.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.serving import (
    BatchingConfig,
    ClusterConfig,
    NetServer,
    RumbaClient,
    RumbaServer,
    ServerConfig,
    serve_cluster,
)
from repro.serving.cluster.nodes import Node, NodeLink
from repro.serving.net import protocol as wire
from tests.serving.cluster.fleet import RawPeer


def _cluster_config(**overrides) -> ClusterConfig:
    base = dict(probe_interval_s=0.05)
    base.update(overrides)
    return ClusterConfig(**base)


@pytest.fixture()
def node(fft_prototype):
    server = RumbaServer(
        prototype=fft_prototype.clone_shard(),
        config=ServerConfig(
            n_workers=1,
            batching=BatchingConfig(max_batch_requests=4,
                                    flush_interval_s=0.002),
        ),
    )
    net = NetServer(server, "127.0.0.1", 0).start()
    yield net
    net.stop()


@pytest.fixture()
def router(node):
    r = serve_cluster(
        [f"{node.address[0]}:{node.address[1]}"],
        config=_cluster_config(), wait_for=1,
    )
    yield r
    r.stop()


def _settled(router) -> bool:
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        nodes = router.manager.nodes.values()
        if router._inflight == 0 and all(n.inflight == 0 for n in nodes):
            return True
        time.sleep(0.01)
    return False


class TestVersionInterop:
    """One dialect: a client on it is relayed, a peer on any other
    protocol version is refused."""

    def test_raw_request_is_answered_with_the_propagated_trace(
        self, router, fft_input_pool
    ):
        peer = RawPeer(router.address)
        try:
            inputs = fft_input_pool[:8]
            peer.sock.sendall(wire.encode_frame(
                wire.FT_REQUEST, 41,
                wire.pack_request(inputs, deadline_s=30.0, trace_id=99),
            ))
            frame = peer.read_frame()
            assert (frame.frame_type, frame.request_id) == (
                wire.FT_RESULT, 41
            )
            doc = wire.unpack_result(frame.body)
            assert doc["outputs"].shape[0] == 8
            node_name, worker = doc["worker"].split("/", 1)
            assert node_name in router.manager.nodes and worker
            assert doc["trace_id"] == 99
        finally:
            peer.close()
        assert _settled(router)

    def test_relayed_outputs_are_the_nodes_bytes(
        self, router, node, fft_input_pool
    ):
        with RumbaClient(*router.address) as via_router, \
                RumbaClient(*node.address) as direct:
            a = via_router.submit_wait(fft_input_pool[:8], deadline_s=30.0)
            b = direct.submit_wait(fft_input_pool[:8], deadline_s=30.0)
        assert a.outputs.tobytes() == b.outputs.tobytes()
        assert a.worker == f"{node.address[0]}:{node.address[1]}/{b.worker}"

    @pytest.mark.parametrize("version", [1, 99])
    def test_wrong_version_closes_with_typed_error(self, router, version):
        peer = RawPeer(router.address)
        try:
            blob = bytearray(wire.encode_frame(wire.FT_STATS, 1))
            struct.pack_into("<H", blob, 8, version)
            struct.pack_into("<I", blob, len(blob) - 4,
                             zlib.crc32(bytes(blob[4:-4])))
            peer.sock.sendall(bytes(blob))
            frame = peer.read_frame()
            assert frame.frame_type == wire.FT_ERROR
            code, message = wire.unpack_error(frame.body)
            assert code == wire.ERR_PROTOCOL
            assert f"version {version}" in message
            assert peer.at_eof()
        finally:
            peer.close()
        assert _settled(router)

    def test_client_refuses_a_version_1_welcome(self):
        liar = _LyingNode(protocol=1)
        try:
            host, port = wire.parse_address(liar.address)
            with pytest.raises(ProtocolError, match="protocol 1"):
                RumbaClient(host, port, timeout_s=10.0)
        finally:
            liar.stop()

    def test_node_link_refuses_a_version_1_welcome(self):
        liar = _LyingNode(protocol=1)
        link = NodeLink(Node(liar.address), manager=None)
        try:
            with pytest.raises(ProtocolError, match="protocol 1"):
                asyncio.run(link.connect(timeout=10.0))
            assert not link.connected
        finally:
            liar.stop()


class TestHostileClient:
    def _bodies(self):
        good = wire.pack_request(np.ones((4, 1)), deadline_s=5.0, scheme="t")
        oversize = bytearray(good)
        struct.pack_into("<II", oversize, 8 + 2 + 1, 1 << 20, 1 << 20)
        bad_utf8 = bytearray(good)
        bad_utf8[10:11] = b"\xff"
        return {
            "truncated": good[:-4],
            "trailing": good + b"\x00\x00",
            "oversize_dims": bytes(oversize),
            "undecodable_scheme": bytes(bad_utf8),
            "empty": b"",
        }

    def test_lying_body_is_one_typed_error_and_the_stream_lives_on(
        self, router, fft_input_pool
    ):
        peer = RawPeer(router.address)
        try:
            for request_id, (name, body) in enumerate(
                self._bodies().items(), start=1
            ):
                with pytest.raises(ProtocolError) as expected:
                    wire.unpack_request(body)
                peer.sock.sendall(
                    wire.encode_frame(wire.FT_REQUEST, request_id, body)
                )
                frame = peer.read_frame()
                assert frame.frame_type == wire.FT_ERROR, name
                assert frame.request_id == request_id
                assert wire.unpack_error(frame.body) == (
                    wire.ERR_PROTOCOL, str(expected.value)
                )
            # The envelope was sound each time, so the connection stays
            # usable: a good request on it is still answered.
            peer.sock.sendall(wire.encode_frame(
                wire.FT_REQUEST, 77,
                wire.pack_request(fft_input_pool[:8], deadline_s=30.0),
            ))
            frame = peer.read_frame()
            assert (frame.frame_type, frame.request_id) == (
                wire.FT_RESULT, 77
            )
        finally:
            peer.close()
        assert _settled(router)

    def test_bad_crc_is_a_typed_error_then_a_closed_connection(self, router):
        peer = RawPeer(router.address)
        try:
            blob = bytearray(wire.encode_frame(
                wire.FT_REQUEST, 1, wire.pack_request(np.ones((2, 1)))
            ))
            blob[-1] ^= 0xFF
            peer.sock.sendall(bytes(blob))
            frame = peer.read_frame()
            assert frame.frame_type == wire.FT_ERROR
            code, message = wire.unpack_error(frame.body)
            assert code == wire.ERR_PROTOCOL and "CRC" in message
            assert peer.at_eof()
        finally:
            peer.close()
        assert _settled(router)


class _LyingNode(threading.Thread):
    """A node whose RESULT bodies are garbage inside a sound envelope
    (or whose WELCOME claims another ``protocol``)."""

    def __init__(self, reply_body: bytes = b"", protocol: int = 2):
        super().__init__(daemon=True)
        self.reply_body = reply_body
        self.protocol = protocol
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = "127.0.0.1:%d" % self.listener.getsockname()[1]
        self.start()

    def run(self):
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(sock,), daemon=True
            ).start()

    def _serve(self, sock):
        welcome = {"server": "rumba", "protocol": self.protocol,
                   "app": "fft", "scheme": "treeErrors", "features": 1,
                   "node_id": "liar", "started_at_monotonic": 1.0}
        buffer = wire.FrameBuffer()
        try:
            sock.sendall(wire.encode_frame(
                wire.FT_WELCOME, 0, wire.pack_json(welcome)
            ))
            while True:
                data = sock.recv(65536)
                if not data:
                    return
                for frame in buffer.feed(data):
                    if frame.frame_type == wire.FT_STATS:
                        reply = wire.encode_frame(
                            wire.FT_STATS_RESULT, frame.request_id,
                            wire.pack_json({"inflight_requests": 0}),
                        )
                    else:
                        reply = wire.encode_frame(
                            wire.FT_RESULT, frame.request_id,
                            self.reply_body,
                        )
                    sock.sendall(reply)
        except OSError:
            pass
        finally:
            sock.close()

    def stop(self):
        self.listener.close()


class TestHostileNode:
    @pytest.mark.parametrize("mutation", ["truncated", "trailing", "empty"])
    def test_lying_reply_is_a_typed_error_with_nothing_left_in_flight(
        self, mutation
    ):
        good = wire.pack_result(np.ones((2, 1)), "w0", 0.0, 0.0, 0.0, False)
        body = {"truncated": good[:-3], "trailing": good + b"!",
                "empty": b""}[mutation]
        with pytest.raises(ProtocolError) as expected:
            wire.unpack_result(body)
        liar = _LyingNode(body)
        router = serve_cluster(
            [liar.address], config=_cluster_config(), wait_for=1
        )
        try:
            with RumbaClient(*router.address) as client:
                handles = [
                    client.submit(np.ones((2, 1)), deadline_s=10.0)
                    for _ in range(5)
                ]
                for handle in handles:
                    with pytest.raises(ProtocolError) as raised:
                        handle.result(10.0)
                    assert str(raised.value) == str(expected.value)
            assert _settled(router)
            failed = router._outcomes(liar.address)[1]
            assert failed.value == 5
        finally:
            router.stop()
            liar.stop()


class TestFleetFieldCache:
    def test_fields_follow_membership_not_requests(self, node, router):
        address = f"{node.address[0]}:{node.address[1]}"
        memberless = serve_cluster([], config=_cluster_config(), wait_for=0)
        try:
            with RumbaClient(*memberless.address) as client:
                assert (client.app, client.features) == ("", 0)
        finally:
            memberless.stop()
        with RumbaClient(*router.address) as client:
            assert (client.app, client.scheme) == ("fft", "treeErrors")
            assert client.features > 0
            calls = []
            router._refresh_fleet = lambda: calls.append(1)
            for _ in range(5):
                client.submit_wait(np.ones((2, client.features)),
                                   deadline_s=30.0)
            assert calls == []  # nothing re-read per request
        completed = router._outcomes(address)[0]
        assert completed.value == 5
