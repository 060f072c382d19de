"""Helpers shared by the cluster suites: a raw framed peer, and a burst
that is in flight all at once.

Least-loaded routing with a name tie-break sends a client that waits for
each answer to the same node every time, so "both nodes serve" cannot be
shown one request at a time.  What the rule does guarantee is that
requests *held in flight together* spread: :func:`burst_nodes` writes k
REQUEST frames in one ``sendall``, the router forwards them in one loop
iteration — before any reply can lower a ledger — and alternates.
"""

from __future__ import annotations

import socket
import time
from typing import List

from repro.serving import RumbaClient
from repro.serving.net import protocol as wire


class RawPeer:
    """A socket that speaks frames, with the WELCOME already read."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10.0)
        self.buffer = wire.FrameBuffer()
        self.welcome = self.read_frame()

    def read_frame(self):
        return RumbaClient._recv_frame(self.sock, self.buffer)

    def at_eof(self) -> bool:
        try:
            self.read_frame()
        except ConnectionError:
            return True
        return False

    def close(self):
        self.sock.close()


def wait_idle(router, timeout: float = 10.0) -> bool:
    """Until the router's load signal reads zero for every member: its own
    ledger and the depth each node reported on its last probe."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        rows = router.stats_document()["health"].values()
        if router._inflight == 0 and all(
            row["inflight"] == 0 and row["reported_inflight"] == 0
            for row in rows
        ):
            return True
        time.sleep(0.01)
    return False


def burst_nodes(router, inputs, k: int) -> List[str]:
    """Hold ``k`` requests in flight at once through an idle ``router``;
    the node name that answered each, in request order."""
    assert wait_idle(router)
    peer = RawPeer(router.address)
    try:
        body = wire.pack_request(inputs, deadline_s=30.0)
        peer.sock.sendall(b"".join(
            wire.encode_frame(wire.FT_REQUEST, request_id, body)
            for request_id in range(1, k + 1)
        ))
        answered = {}
        for _ in range(k):
            frame = peer.read_frame()
            assert frame.frame_type == wire.FT_RESULT, (
                wire.unpack_error(frame.body)
                if frame.frame_type == wire.FT_ERROR else frame.type_name
            )
            worker = wire.unpack_result(frame.body)["worker"]
            answered[frame.request_id] = worker.split("/", 1)[0]
    finally:
        peer.close()
    return [answered[request_id] for request_id in range(1, k + 1)]
