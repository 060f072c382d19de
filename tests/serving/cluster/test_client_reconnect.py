"""Client auto-reconnect and node-identity tests.

The contract: idempotent calls (``stats()``) get one transparent
reconnect-and-replay when the connection dies underneath them; data
requests in flight fail *fast* with the typed, retryable
:class:`~repro.errors.ConnectionLostError` — never silently replayed,
because the client cannot know whether the server executed them.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ConnectionLostError, WorkerCrashError
from repro.serving import (
    BatchingConfig,
    NetServer,
    RumbaClient,
    RumbaServer,
    ServerConfig,
)


def _make_node(prototype, port: int = 0, node_id=None) -> NetServer:
    server = RumbaServer(
        prototype=prototype.clone_shard(),
        config=ServerConfig(
            n_workers=1,
            batching=BatchingConfig(max_batch_requests=4,
                                    flush_interval_s=0.002),
        ),
    )
    return NetServer(server, "127.0.0.1", port, node_id=node_id).start()


class TestNodeIdentity:
    def test_welcome_carries_node_identity(self, fft_prototype):
        node = _make_node(fft_prototype, node_id="pinned-id")
        try:
            with RumbaClient(*node.address) as client:
                assert client.welcome["node_id"] == "pinned-id"
                assert client.welcome["started_at_monotonic"] is not None
                assert client.node_id == "pinned-id"
        finally:
            node.stop()

    def test_default_node_id_changes_across_restart(self, fft_prototype):
        node = _make_node(fft_prototype)
        port = node.address[1]
        with RumbaClient(*node.address) as client:
            first = client.welcome["node_id"]
            first_start = client.welcome["started_at_monotonic"]
        node.stop()
        node = _make_node(fft_prototype, port=port)
        try:
            with RumbaClient(*node.address) as client:
                assert client.welcome["node_id"] != first
                assert client.welcome["started_at_monotonic"] != first_start
        finally:
            node.stop()


class TestAutoReconnect:
    def test_stats_reconnects_transparently(self, fft_prototype):
        node = _make_node(fft_prototype)
        port = node.address[1]
        client = RumbaClient(*node.address)
        try:
            before = client.stats()
            assert before["state"] == "running"
            node.stop()
            node = _make_node(fft_prototype, port=port)
            # One stats() call: detects the dead socket, reconnects,
            # replays — no error surfaces to the caller.
            after = client.stats()
            assert after["state"] == "running"
            assert client.node_id == node.node_id
        finally:
            client.close()
            node.stop()

    def test_inflight_requests_fail_fast_and_typed(
        self, fft_prototype, fft_input_pool
    ):
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                n_workers=1,
                batching=BatchingConfig(max_batch_requests=4,
                                        flush_interval_s=0.002),
            ),
        )
        server.prepare()
        # Park each batch on its worker until the node has stopped: a
        # reply that beat stop() would leave its request nothing to fail.
        entered, release = threading.Event(), threading.Event()
        for shard in server.shards:
            def parked(*args, _run=shard.system.run_invocation, **kwargs):
                entered.set()
                release.wait(30.0)
                return _run(*args, **kwargs)

            shard.system.run_invocation = parked
        server.start()
        # The node fronts a server it did not start, so stopping the node
        # leaves the parked worker to the ``finally`` below.
        node = NetServer(server, "127.0.0.1", 0).start()
        client = RumbaClient(*node.address)
        try:
            handles = [
                client.submit(fft_input_pool[:8], deadline_s=30.0)
                for _ in range(4)
            ]
            assert entered.wait(10.0)
            node.stop()
            started = time.monotonic()
            failures = 0
            for handle in handles:
                try:
                    handle.result(10.0)
                except ConnectionLostError:
                    failures += 1
            # All in-flight requests fail (fast), and the error class is
            # the retryable WorkerCrashError family, so a caller's
            # existing retry policy applies unchanged.
            assert failures == len(handles)
            assert issubclass(ConnectionLostError, WorkerCrashError)
            assert time.monotonic() - started < 10.0
        finally:
            client.close()
            node.stop()
            release.set()
            server.stop()

    def test_submit_after_reconnect_works(
        self, fft_prototype, fft_input_pool
    ):
        node = _make_node(fft_prototype)
        port = node.address[1]
        client = RumbaClient(*node.address)
        try:
            client.submit_wait(fft_input_pool[:8], deadline_s=30.0)
            node.stop()
            node = _make_node(fft_prototype, port=port)
            # submit() is not replayed, but a *new* submit on the same
            # client object reconnects and proceeds.
            result = client.submit_wait(fft_input_pool[:8], deadline_s=30.0)
            assert result.outputs.shape[0] == 8
        finally:
            client.close()
            node.stop()

    def test_auto_reconnect_off_raises_typed(self, fft_prototype):
        node = _make_node(fft_prototype)
        client = RumbaClient(*node.address, auto_reconnect=False)
        try:
            client.stats()
            node.stop()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    client.stats(timeout=2.0)
                except ConnectionLostError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("dead connection never raised "
                            "ConnectionLostError with auto_reconnect=False")
        finally:
            client.close()

    def test_reconnect_to_dead_server_raises_typed(self, fft_prototype):
        node = _make_node(fft_prototype)
        client = RumbaClient(*node.address)
        try:
            node.stop()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    client.stats(timeout=2.0)
                except ConnectionLostError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("stats() against a dead address never raised "
                            "ConnectionLostError")
        finally:
            client.close()
