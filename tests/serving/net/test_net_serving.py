"""End-to-end tests for the TCP serving edge.

The contract mirrors the in-process one: every request submitted over
the wire completes exactly once or fails fast with the *same typed
exception* an in-process caller would see — and a remote caller
observing the server through the lockstep test gets byte-identical
outputs to an in-process caller driving an identical shard.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    OverloadedError,
    ProtocolError,
    ServingError,
)
from repro import serving
from repro.serving import (
    BatchingConfig,
    ChaosConfig,
    NetServer,
    RetryConfig,
    RumbaClient,
    RumbaServer,
    ServerConfig,
)
from repro.serving.net import protocol as wire


def _config(**overrides) -> ServerConfig:
    base = dict(
        n_workers=2,
        batching=BatchingConfig(max_batch_requests=4,
                                flush_interval_s=0.002),
    )
    base.update(overrides)
    return ServerConfig(**base)


@pytest.fixture()
def net_server(fft_prototype):
    server = RumbaServer(prototype=fft_prototype.clone_shard(),
                         config=_config())
    net = NetServer(server, "127.0.0.1", 0)
    net.start()
    yield net
    net.stop()


@pytest.fixture()
def client(net_server):
    with RumbaClient(*net_server.address) as c:
        yield c


class TestEndToEnd:
    def test_welcome_metadata(self, client, fft_prototype):
        assert client.protocol_version == wire.PROTOCOL_VERSION
        assert client.app == "fft"
        assert client.scheme == "treeErrors"
        assert client.features == int(
            fft_prototype.app.npu_topology.n_inputs
        )

    def test_submit_wait_round_trip(self, client, fft_input_pool):
        result = client.submit_wait(fft_input_pool[:16], deadline_s=30.0)
        assert result.outputs.shape[0] == 16
        assert np.isfinite(result.outputs).all()
        assert result.latency_s > 0
        assert result.worker

    def test_multiplexed_inflight_requests(self, client, fft_input_pool):
        handles = [client.submit(fft_input_pool[i: i + 8])
                   for i in range(40)]
        results = [h.result(60.0) for h in handles]
        assert len(results) == 40
        assert all(r.outputs.shape[0] == 8 for r in results)
        # Multiplexing really happened on one socket: ids are distinct.
        assert len({h.request_id for h in handles}) == 40

    def test_stats_over_the_wire(self, client, fft_input_pool):
        client.submit_wait(fft_input_pool[:8])
        stats = client.stats()
        assert stats["app"] == "fft"
        assert stats["state"] == "running"
        assert stats["requests_offered"] >= 1
        assert isinstance(stats["workers"], list)

    def test_concurrent_client_threads(self, client, fft_input_pool):
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    client.submit_wait(fft_input_pool[:4], timeout=60.0)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_many_connections(self, net_server, fft_input_pool):
        clients = [RumbaClient(*net_server.address) for _ in range(5)]
        try:
            handles = [c.submit(fft_input_pool[:8]) for c in clients]
            for h in handles:
                assert h.result(60.0).outputs.shape[0] == 8
        finally:
            for c in clients:
                c.close()


def _bare_client() -> RumbaClient:
    """A RumbaClient skeleton with a fake socket (no real connection)."""
    client = RumbaClient.__new__(RumbaClient)
    client._send_lock = threading.Lock()
    client._lock = threading.Lock()
    client._closed = False
    client._conn_dead = False
    client._sock = None
    return client


class TestSendSerialization:
    """_send_frame concurrency contract (regression coverage).

    sendall loops over partial send() syscalls with the GIL released,
    so it must run under the send lock or two submitting threads can
    interleave the bytes of their frames mid-stream.
    """

    def test_concurrent_send_frames_never_overlap(self):
        class RecordingSock:
            def __init__(self):
                self.calls = 0
                self.overlaps = 0
                self._inside = False

            def sendall(self, blob):
                if self._inside:
                    self.overlaps += 1
                self._inside = True
                self.calls += 1
                time.sleep(0.002)  # widen the race window
                self._inside = False

        client = _bare_client()
        sock = RecordingSock()
        client._sock = sock
        threads = [
            threading.Thread(target=client._send_frame, args=(b"x" * 64,))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sock.calls == 8
        assert sock.overlaps == 0

    def test_send_failure_on_stale_socket_spares_new_connection(self):
        from repro.errors import ConnectionLostError

        client = _bare_client()
        fresh = object()

        class StaleSock:
            def sendall(self_, blob):
                # A concurrent reconnect swaps in a healthy socket just
                # as this send fails.
                client._sock = fresh
                raise ConnectionResetError("stale socket")

        client._sock = StaleSock()
        with pytest.raises(ConnectionLostError):
            client._send_frame(b"frame")
        assert client._conn_dead is False


class TestErrorMapping:
    def test_bad_deadline_is_configuration_error(self, client,
                                                 fft_input_pool):
        with pytest.raises(ConfigurationError):
            client.submit_wait(fft_input_pool[:4], deadline_s=-1.0)

    def test_scheme_mismatch_is_configuration_error(self, client,
                                                    fft_input_pool):
        with pytest.raises(ConfigurationError, match="scheme"):
            client.submit_wait(fft_input_pool[:4], scheme="gaussianEVP")

    def test_matching_scheme_is_accepted(self, client, fft_input_pool):
        result = client.submit_wait(fft_input_pool[:4],
                                    scheme="treeErrors")
        assert result.outputs.shape[0] == 4

    def test_overload_round_trips_as_overloaded_error(self, fft_prototype,
                                                      fft_input_pool):
        config = _config(
            n_workers=1,
            batching=BatchingConfig(
                max_batch_requests=1,
                flush_interval_s=0.05,
                admission_capacity=2,
            ),
        )
        server = RumbaServer(prototype=fft_prototype.clone_shard(),
                             config=config)
        with NetServer(server, "127.0.0.1", 0) as net:
            with RumbaClient(*net.address) as client:
                handles = [client.submit(fft_input_pool[:4])
                           for _ in range(40)]
                outcomes = {"completed": 0, "overloaded": 0}
                for handle in handles:
                    try:
                        handle.result(60.0)
                        outcomes["completed"] += 1
                    except OverloadedError:
                        outcomes["overloaded"] += 1
                assert outcomes["overloaded"] > 0
                assert sum(outcomes.values()) == 40


class TestLockstepEquivalence:
    def test_tcp_matches_in_process_byte_for_byte(self, fft_prototype,
                                                  fft_input_pool):
        """The wire adds transport, not semantics: identical sequential
        request streams against identically-cloned shards produce
        byte-identical outputs and matching work counters."""
        config = _config(
            n_workers=1,
            batching=BatchingConfig(max_batch_requests=1,
                                    flush_interval_s=0.0),
        )
        remote = RumbaServer(prototype=fft_prototype.clone_shard(),
                             config=config)
        local = RumbaServer(prototype=fft_prototype.clone_shard(),
                            config=config)
        requests = [fft_input_pool[i * 8: i * 8 + 8] for i in range(12)]
        with NetServer(remote, "127.0.0.1", 0) as net:
            with RumbaClient(*net.address) as client, local:
                for block in requests:
                    via_tcp = client.submit_wait(block, timeout=60.0)
                    in_proc = local.submit_wait(block, timeout=60.0)
                    assert via_tcp.outputs.tobytes() == \
                        in_proc.outputs.tobytes()
                    assert via_tcp.outputs.dtype == in_proc.outputs.dtype
                remote_stats = remote.stats()
                local_stats = local.stats()
        for key in ("requests_offered", "requests_shed", "retries"):
            assert remote_stats[key] == local_stats[key]
        rw, lw = remote_stats["workers"][0], local_stats["workers"][0]
        for key in ("batches", "elements", "invocations", "threshold"):
            assert rw[key] == lw[key]


class TestRawSocketFuzz:
    """Hostile bytes on a live server: typed error, closed connection,
    healthy service afterwards, in-flight gauge back to zero."""

    def _raw(self, net_server):
        sock = socket.create_connection(net_server.address, timeout=10.0)
        # Swallow the WELCOME so subsequent reads see only reactions.
        self._read_frame(sock)
        return sock

    @staticmethod
    def _read_frame(sock):
        def exactly(n):
            buf = b""
            while len(buf) < n:
                chunk = sock.recv(n - len(buf))
                if not chunk:
                    raise ConnectionError("closed")
                buf += chunk
            return buf

        (length,) = struct.unpack("<I", exactly(4))
        return wire.decode_frame(exactly(length))

    def _expect_protocol_error_then_close(self, sock):
        frame = self._read_frame(sock)
        assert frame.frame_type == wire.FT_ERROR
        code, _ = wire.unpack_error(frame.body)
        assert code == wire.ERR_PROTOCOL
        # ... and then EOF: the server hangs up on protocol violations.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            chunk = sock.recv(4096)
            if not chunk:
                return
        pytest.fail("server kept the connection open after a bad frame")

    def test_bad_magic_closes_with_typed_error(self, net_server):
        sock = self._raw(net_server)
        blob = bytearray(wire.encode_frame(wire.FT_STATS, 1))
        struct.pack_into("<I", blob, 4, 0xBADBAD00)
        sock.sendall(bytes(blob))
        self._expect_protocol_error_then_close(sock)
        sock.close()

    def test_wrong_version_closes_with_typed_error(self, net_server):
        sock = self._raw(net_server)
        blob = bytearray(wire.encode_frame(wire.FT_STATS, 1))
        struct.pack_into("<H", blob, 8, 99)
        sock.sendall(bytes(blob))
        self._expect_protocol_error_then_close(sock)
        sock.close()

    def test_corrupted_crc_closes_with_typed_error(self, net_server):
        sock = self._raw(net_server)
        blob = bytearray(wire.encode_frame(
            wire.FT_REQUEST, 1, wire.pack_request(np.ones((2, 1)))
        ))
        blob[-1] ^= 0xFF
        sock.sendall(bytes(blob))
        self._expect_protocol_error_then_close(sock)
        sock.close()

    def test_oversized_length_prefix_rejected_unallocated(self, net_server):
        sock = self._raw(net_server)
        sock.sendall(struct.pack("<I", 1 << 31))
        self._expect_protocol_error_then_close(sock)
        sock.close()

    def test_truncated_frame_then_eof(self, net_server):
        sock = self._raw(net_server)
        good = wire.encode_frame(
            wire.FT_REQUEST, 1, wire.pack_request(np.ones((2, 1)))
        )
        sock.sendall(good[: len(good) // 2])
        sock.close()  # mid-frame EOF must not crash or wedge the server

    def test_result_frame_from_client_is_rejected(self, net_server):
        sock = self._raw(net_server)
        sock.sendall(wire.encode_frame(
            wire.FT_RESULT, 1,
            wire.pack_result(np.ones((1, 1)), "w", 0.0, 0.0, 0.0, False),
        ))
        self._expect_protocol_error_then_close(sock)
        sock.close()

    def test_server_survives_fuzzing_and_serves_clean_clients(
        self, net_server, fft_input_pool
    ):
        for payload in (
            struct.pack("<I", 1 << 31),          # oversized prefix
            struct.pack("<I", 1),                # undersized prefix
            b"\x00" * 3,                         # torn prefix + EOF
            wire.encode_frame(wire.FT_STATS, 1)[:-2],  # torn frame
        ):
            sock = self._raw(net_server)
            sock.sendall(payload)
            sock.close()
        # The service is unharmed: a well-behaved client still works and
        # the in-flight ledger drained back to zero.
        with RumbaClient(*net_server.address) as client:
            result = client.submit_wait(fft_input_pool[:8], timeout=60.0)
            assert result.outputs.shape[0] == 8
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and net_server._inflight:
            time.sleep(0.01)
        assert net_server._inflight == 0


class TestChaosExactlyOnce:
    def test_every_wire_request_completes_once_or_fails_typed(
        self, fft_prototype, fft_input_pool
    ):
        """Chaos kills under the network edge: the exactly-once ledger
        holds for remote callers too — completed + failed accounts for
        every submission, and nothing hangs."""
        config = _config(
            backend="process",
            n_workers=2,
            retry=RetryConfig(retry_backoff_s=0.01,
                              default_deadline_s=20.0),
            chaos=ChaosConfig(kill_rate=6.0, fail_prob=0.2, seed=3),
        )
        server = RumbaServer(prototype=fft_prototype.clone_shard(),
                             config=config)
        completed, failed = 0, 0
        n_requests = 40
        with NetServer(server, "127.0.0.1", 0) as net:
            with RumbaClient(*net.address) as client:
                handles = []
                for _ in range(n_requests):
                    handles.append(client.submit(fft_input_pool[:16],
                                                 deadline_s=20.0))
                    # Pace the load so the run spans enough wall time for
                    # the Poisson killer to actually fire.
                    time.sleep(0.02)
                for handle in handles:
                    try:
                        result = handle.result(60.0)
                        assert result.outputs.shape[0] == 16
                        completed += 1
                    except ServingError:
                        failed += 1
            stats = server.stats()
        assert completed + failed == n_requests
        assert completed > 0
        chaos_stats = stats["chaos"]
        assert chaos_stats["kills"] + chaos_stats["injected_faults"] >= 1


class TestFacade:
    def test_serve_and_connect(self, fft_input_pool):
        net = serving.serve("fft", listen="127.0.0.1:0")
        try:
            assert isinstance(net, NetServer)
            with serving.connect(net.address) as client:
                result = client.submit_wait(fft_input_pool[:8],
                                            deadline_s=30.0)
                assert result.outputs.shape[0] == 8
        finally:
            net.stop()
        assert net.server.state == "stopped"

    def test_serve_in_process(self, fft_input_pool):
        server = serving.serve(
            "fft", config=ServerConfig(n_workers=1)
        )
        try:
            assert isinstance(server, RumbaServer)
            result = server.submit_wait(fft_input_pool[:8])
            assert result.outputs.shape[0] == 8
        finally:
            server.stop()

    def test_connect_rejects_bad_address(self):
        with pytest.raises(ConfigurationError):
            serving.connect("no-port-here")


class TestNetLifecycle:
    def test_address_before_start_raises(self, fft_prototype):
        server = RumbaServer(prototype=fft_prototype.clone_shard(),
                             config=_config())
        net = NetServer(server, "127.0.0.1", 0)
        with pytest.raises(ServingError):
            net.address
        server.stop()

    def test_double_start_raises(self, net_server):
        with pytest.raises(ServingError, match="already started"):
            net_server.start()

    def test_stop_is_idempotent(self, fft_prototype):
        server = RumbaServer(prototype=fft_prototype.clone_shard(),
                             config=_config())
        net = NetServer(server, "127.0.0.1", 0).start()
        net.stop()
        net.stop()
        assert server.state == "stopped"

    def test_metrics_registered(self, net_server, fft_input_pool):
        with RumbaClient(*net_server.address) as client:
            client.submit_wait(fft_input_pool[:8])
        names = {metric["name"]
                 for metric in net_server.server.registry.collect()}
        assert "rumba_net_connections_total" in names
        assert "rumba_net_bytes_total" in names
        assert "rumba_net_inflight_requests" in names
