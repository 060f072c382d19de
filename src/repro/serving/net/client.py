"""Client library for the Rumba network edge.

:class:`RumbaClient` is blocking and thread-backed.  One socket carries
many in-flight requests (request-id multiplexing); a background reader
thread demultiplexes responses into per-request :class:`NetHandle`
futures.  (The asyncio side of the wire is the router's
:class:`~repro.serving.cluster.nodes.NodeLink`, which shares the WELCOME
and version-negotiation helpers here.)

It maps ERROR frames back to the typed exception hierarchy
(:class:`~repro.errors.OverloadedError`,
:class:`~repro.errors.ConfigurationError`, ...) via
:func:`~repro.serving.net.protocol.code_to_exception`, so remote calls
fail exactly like in-process ``submit_wait`` calls do.
"""

from __future__ import annotations

import itertools
import socket
import threading
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import ConnectionLostError, ProtocolError, ServingError
from repro.serving.net import protocol as wire

__all__ = ["NetHandle", "NetResult", "RumbaClient"]


@dataclass(frozen=True)
class NetResult:
    """One completed remote request (mirrors ``ServeResult``)."""

    request_id: int
    outputs: np.ndarray
    worker: str
    queue_wait_s: float
    latency_s: float
    fix_fraction: float
    degraded: bool
    #: Server-assigned request-trace id (0 on v1 servers / untraced).
    trace_id: int = 0
    #: True when the server exported this request's trace (flight log +
    #: stage histograms); look it up with ``python -m repro trace``.
    trace_sampled: bool = False

    @property
    def n_elements(self) -> int:
        return int(self.outputs.shape[0])


class NetHandle:
    """Thread-safe future for one in-flight remote request."""

    __slots__ = ("request_id", "_event", "_result", "_exception")

    def __init__(self, request_id: int):
        self.request_id = request_id
        self._event = threading.Event()
        self._result: Optional[NetResult] = None
        self._exception: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def _set_result(self, result: NetResult) -> None:
        self._result = result
        self._event.set()

    def _set_exception(self, exc: BaseException) -> None:
        self._exception = exc
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> NetResult:
        """Block until the response arrives; raises the typed failure."""
        if not self._event.wait(timeout):
            raise ServingError(
                f"timed out waiting for remote request {self.request_id}"
            )
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result


def _settle(frame: wire.Frame, set_result, set_exception) -> None:
    """Resolve one pending request from the frame that answers it."""
    try:
        if frame.frame_type == wire.FT_RESULT:
            fields = wire.unpack_result(frame.body, version=frame.version)
            set_result(NetResult(request_id=frame.request_id, **fields))
        elif frame.frame_type == wire.FT_STATS_RESULT:
            set_result(wire.unpack_json(frame.body))
        elif frame.frame_type == wire.FT_ERROR:
            set_exception(
                wire.code_to_exception(*wire.unpack_error(frame.body))
            )
        else:
            set_exception(ProtocolError(
                f"unexpected {frame.type_name} frame for request "
                f"{frame.request_id}"
            ))
    except ProtocolError as exc:  # undecodable body in a sound frame
        set_exception(exc)


def _welcome_document(frame: wire.Frame) -> dict:
    if frame.frame_type != wire.FT_WELCOME:
        raise ProtocolError(f"expected a WELCOME frame, got {frame.type_name}")
    return wire.unpack_json(frame.body)


async def _read_welcome(reader, buffer: wire.FrameBuffer) -> dict:
    """The WELCOME document that opens every connection (asyncio side)."""
    while True:
        data = await reader.read(wire.READ_BYTES)
        if not data:
            raise ConnectionError("peer closed before its WELCOME")
        for frame in buffer.feed(data):
            return _welcome_document(frame)


def _adopt_welcome(client, doc: dict) -> None:
    """Publish a WELCOME's metadata on the client."""
    client.welcome = doc
    client.protocol_version = int(doc.get("protocol", 0))
    client.app = str(doc.get("app", ""))
    client.scheme = str(doc.get("scheme", ""))
    client.features = int(doc.get("features", 0))
    client.node_id = str(doc.get("node_id", ""))
    client.server_max_frame_bytes = int(
        doc.get("max_frame_bytes", wire.DEFAULT_MAX_FRAME_BYTES)
    )
    client._wire_version = _negotiate_version(doc)


def _negotiate_version(welcome: dict) -> int:
    """Pick the wire version to speak from a WELCOME document.

    The server advertises its newest (``protocol``) and oldest
    (``min_protocol``, absent on v1 servers) generations; the client
    speaks the newest both sides understand and only refuses servers
    that predate the protocol entirely.
    """
    server_version = int(welcome.get("protocol", 0))
    if server_version < wire.MIN_SUPPORTED_VERSION:
        raise ProtocolError(
            f"server speaks protocol {server_version}, this client "
            f"needs at least {wire.MIN_SUPPORTED_VERSION}"
        )
    return min(server_version, wire.PROTOCOL_VERSION)


class RumbaClient:
    """Blocking TCP client with connection reuse and multiplexing.

    Opens one socket, reads the server's WELCOME (exposed as
    :attr:`app` / :attr:`scheme` / :attr:`features` /
    :attr:`protocol_version`), then keeps the connection for any number
    of requests.  :meth:`submit` is non-blocking — it returns a
    :class:`NetHandle` immediately, so a single client can keep many
    requests in flight; :meth:`submit_wait` is the one-shot convenience.

    When the connection dies (server restart, network blip) the two
    request classes part ways:

    * **in-flight data requests fail fast** with a typed
      :class:`~repro.errors.ConnectionLostError` — the server may or may
      not have executed them, so only a layer that owns redelivery (the
      cluster router's retry path) may safely resend them;
    * **idempotent calls** (:meth:`stats`, and the WELCOME metadata
      refresh that rides every reconnect) get one transparent
      reconnect-and-replay when ``auto_reconnect`` is on (the default),
      so a monitoring loop never sees a raw socket error just because a
      node restarted.

    Thread-safe: multiple threads may submit on one client.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES,
        auto_reconnect: bool = True,
    ):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.max_frame_bytes = max_frame_bytes
        self.auto_reconnect = auto_reconnect
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._reconnect_lock = threading.Lock()
        self._pending: Dict[int, NetHandle] = {}
        self._next_id = itertools.count(1)
        self._closed = False
        self._conn_dead = False
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[threading.Thread] = None
        self.welcome: dict = {}
        self._open_connection()

    # ------------------------------------------------------------------ #
    # Socket plumbing                                                    #
    # ------------------------------------------------------------------ #
    def _open_connection(self) -> None:
        """Dial, read the WELCOME, negotiate, start a reader thread."""
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )
        # Every endpoint disables Nagle: a request must not wait for the
        # previous one's ACK (delayed by the peer) before it leaves.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        self._sock = sock
        # The WELCOME is read synchronously so connection metadata is
        # available before the reader thread takes over the socket.
        buffer = wire.FrameBuffer(self.max_frame_bytes)
        try:
            _adopt_welcome(
                self, _welcome_document(self._recv_frame(sock, buffer))
            )
        except BaseException:
            sock.close()
            raise
        with self._lock:
            self._conn_dead = False
        self._reader = threading.Thread(
            target=self._reader_loop, args=(sock, buffer),
            name="rumba-client-reader", daemon=True,
        )
        self._reader.start()

    def _reconnect(self) -> None:
        """One reconnect attempt; raises ConnectionLostError on failure."""
        with self._reconnect_lock:
            with self._lock:
                if self._closed:
                    raise ServingError("client is closed")
                if not self._conn_dead:
                    return  # another thread already reconnected
            old_sock, old_reader = self._sock, self._reader
            if old_sock is not None:
                old_sock.close()
            if old_reader is not None:
                old_reader.join(timeout=5.0)
                if old_reader.is_alive():
                    # The stale reader won't fail handles once the socket
                    # swaps (it only acts while it owns the current
                    # socket), so requests stranded on the abandoned
                    # connection are failed here instead.
                    self._fail_all_pending(ConnectionError(
                        "connection abandoned by reconnect"
                    ))
            try:
                self._open_connection()
            except (ConnectionError, OSError) as exc:
                raise ConnectionLostError(
                    f"reconnect to {self.host}:{self.port} failed: {exc}"
                ) from exc

    def _ensure_connected(self) -> None:
        with self._lock:
            if self._closed:
                raise ServingError("client is closed")
            dead = self._conn_dead
        if not dead:
            return
        if not self.auto_reconnect:
            raise ConnectionLostError(
                f"connection to {self.host}:{self.port} was lost"
            )
        self._reconnect()

    @staticmethod
    def _recv_frame(sock, buffer: wire.FrameBuffer) -> wire.Frame:
        """Block for the next frame; later ones stay in ``buffer``."""
        data = b""
        while True:
            for frame in buffer.feed(data):
                return frame
            data = sock.recv(wire.READ_BYTES)
            if not data:
                raise ConnectionError("server closed the connection")

    def _send_frame(self, blob: bytes) -> None:
        # sendall stays inside the lock: it loops over partial send()
        # syscalls, so two concurrent senders would interleave the bytes
        # of their frames and corrupt the multiplexed stream.
        with self._send_lock:
            if self._closed:
                raise ServingError("client is closed")
            sock = self._sock
            try:
                sock.sendall(blob)
            except (ConnectionError, OSError) as exc:
                with self._lock:
                    # A concurrent reconnect may already have swapped the
                    # socket; only a failure on the *current* one marks
                    # the connection dead.
                    if self._sock is sock:
                        self._conn_dead = True
                raise ConnectionLostError(
                    f"connection to the server was lost mid-send: {exc}"
                ) from exc

    def _reader_loop(
        self, sock: socket.socket, buffer: wire.FrameBuffer
    ) -> None:
        try:
            data = b""
            while True:  # one recv per burst of replies
                for frame in buffer.feed(data):
                    with self._lock:
                        handle = self._pending.pop(frame.request_id, None)
                    if handle is not None:  # else: a request we gave up on
                        _settle(
                            frame, handle._set_result, handle._set_exception
                        )
                data = sock.recv(wire.READ_BYTES)
                if not data:
                    raise ConnectionError("server closed the connection")
        except (ConnectionError, OSError, ProtocolError) as exc:
            with self._lock:
                # Only the reader of the *current* socket declares the
                # connection dead and fails its pending handles; a
                # reconnect swaps the socket first, so a stale reader
                # that outlived the swap must not touch handles that
                # belong to the new connection.
                if self._sock is not sock:
                    return
                self._conn_dead = True
            self._fail_all_pending(exc)

    def _fail_all_pending(self, cause: BaseException) -> None:
        with self._lock:
            if self._closed and not self._pending:
                return
            pending, self._pending = self._pending, {}
        if isinstance(cause, ProtocolError):
            exc: BaseException = cause
        else:
            # Typed and retryable: the server never answered, so only an
            # owner of redelivery (e.g. the cluster router) may resend.
            exc = ConnectionLostError(
                f"connection to the server was lost: {cause}"
            )
        for handle in pending.values():
            handle._set_exception(exc)

    # ------------------------------------------------------------------ #
    # Public API                                                         #
    # ------------------------------------------------------------------ #
    def submit(
        self,
        inputs: np.ndarray,
        deadline_s: Optional[float] = None,
        scheme: Optional[str] = None,
        trace: bool = False,
    ) -> NetHandle:
        """Send one request; returns immediately with a :class:`NetHandle`.

        ``trace=True`` forces the server to sample this request's trace
        (flight record + stage histograms) regardless of its sampling
        rate; the assigned id comes back in ``NetResult.trace_id``.

        A dead connection is redialled first (``auto_reconnect``); a
        send that fails mid-request raises
        :class:`~repro.errors.ConnectionLostError` without retrying —
        the server may have received the frame, so replaying a *data*
        request is the redelivery owner's call, not the transport's.
        """
        self._ensure_connected()
        return self._send(wire.FT_REQUEST, wire.pack_request(
            inputs, deadline_s=deadline_s, scheme=scheme or "",
            force_sample=trace, version=self._wire_version,
        ))

    def _send(self, frame_type: int, body: bytes = b"") -> NetHandle:
        """Register a pending handle, then send its frame."""
        request_id = next(self._next_id)
        handle = NetHandle(request_id)
        with self._lock:
            if self._closed:
                raise ServingError("client is closed")
            self._pending[request_id] = handle
        try:
            self._send_frame(wire.encode_frame(
                frame_type, request_id, body, version=self._wire_version
            ))
        except ConnectionLostError:
            with self._lock:
                self._pending.pop(request_id, None)
            raise
        return handle

    def submit_wait(
        self,
        inputs: np.ndarray,
        deadline_s: Optional[float] = None,
        scheme: Optional[str] = None,
        timeout: Optional[float] = None,
        trace: bool = False,
    ) -> NetResult:
        """Submit and block for the result (default timeout: ``timeout_s``)."""
        handle = self.submit(
            inputs, deadline_s=deadline_s, scheme=scheme, trace=trace
        )
        return handle.result(self.timeout_s if timeout is None else timeout)

    def _stats_once(self, timeout: Optional[float]) -> dict:
        return self._send(wire.FT_STATS).result(  # type: ignore[return-value]
            self.timeout_s if timeout is None else timeout
        )

    def stats(self, timeout: Optional[float] = None) -> dict:
        """Fetch the server's ``stats()`` document over the wire.

        Idempotent, so a connection lost before the answer arrives gets
        one transparent reconnect-and-replay (``auto_reconnect``) before
        any error surfaces.
        """
        try:
            self._ensure_connected()
            return self._stats_once(timeout)
        except ConnectionLostError:
            if not self.auto_reconnect:
                raise
            self._reconnect()
            return self._stats_once(timeout)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        self._fail_all_pending(ServingError("client closed"))

    def __enter__(self) -> "RumbaClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
