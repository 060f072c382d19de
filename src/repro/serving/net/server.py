"""Asyncio TCP front-end over a :class:`RumbaServer`.

The :class:`NetServer` is deliberately thin: it owns sockets, frames,
and per-connection bookkeeping — *nothing else*.  Every decoded REQUEST
frame goes straight into the wrapped server's admission queue via
``RumbaServer.submit``, so batching, backpressure degradation, shedding,
deadline-budgeted retries, supervision, and chaos injection all apply to
remote traffic exactly as they do in process.  Completion flows back
through :meth:`ServeHandle.add_done_callback`: the worker thread that
finishes a request drops it into a :class:`_CompletionInbox`, which
wakes the event loop once per *batch* of completions; the loop encodes
the batch's responses and the connection's
:class:`~repro.serving.net.protocol.FrameWriter` sends them in one
write.  No thread ever parks per in-flight request.

Listening, the loop thread, per-connection framing and the malformed-
frame contract live in :class:`FrameListener`, which the cluster router
shares; a hostile or broken client can never crash the service or
strand its own requests in the in-flight ledger.
"""

from __future__ import annotations

import asyncio
import threading
import time
import uuid
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Set, Tuple

from repro.errors import ConfigurationError, ProtocolError, ServingError
from repro.observability.reqtrace import STAGE_NET_RECV, STAGE_NET_SEND
from repro.serving.net import protocol as wire

if TYPE_CHECKING:  # the router shares this module and runs no server
    from repro.serving.server import RumbaServer

__all__ = ["ClientConnection", "FrameListener", "NetServer"]

_STOP_JOIN_S = 10.0


class ClientConnection:
    """One accepted connection, touched only from the event-loop thread."""

    __slots__ = ("frames", "outstanding", "closed")

    def __init__(self, writer, loop, on_sent=None):
        self.frames = wire.FrameWriter(writer.transport, loop, on_sent=on_sent)
        self.outstanding: Set[int] = set()
        self.closed = False

    def send_error(self, request_id: int, code: int, message: str) -> None:
        self.frames.write(wire.encode_frame(
            wire.FT_ERROR, request_id, wire.pack_error(code, message)
        ))


class FrameListener:
    """The listening side of the edge, written once for node and router.

    One event loop on one background thread (so ``start()`` / ``stop()``
    / ``serve_forever()`` are ordinary blocking calls) accepts
    connections and, per connection: sends the WELCOME, feeds a
    ``FrameBuffer``, hands REQUEST frames to :meth:`_on_request`, answers
    STATS from :meth:`_stats_document`, and replies through the
    connection's tick-coalescing ``FrameWriter``.  A malformed frame gets
    a best-effort typed ERROR frame (``ERR_PROTOCOL``, id 0) and a closed
    connection (``docs/protocol.md``); requests it had in flight are not
    failed — they finish where they run, keeping that side's
    exactly-once ledger intact, and the subclass drops their answers
    once ``conn.closed`` is set.  Subclasses also provide ``_m_inflight``.
    """

    _thread_name = "rumba-net-loop"
    #: ``on_sent`` of every connection's FrameWriter (bytes written).
    _on_sent: Optional[Callable[[int], None]] = None

    def __init__(self, host: str, port: int, max_frame_bytes: int):
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        # Stamped at start(); CLOCK_MONOTONIC readings differ between
        # incarnations of a process, so (node_id, started_at_monotonic)
        # together pin one process lifetime behind one address.
        self.started_at_monotonic: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._finished = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._bound: Optional[Tuple[str, int]] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._open_connections = 0
        self._inflight = 0

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid once :meth:`start` returned."""
        if self._bound is None:
            raise ServingError(f"{type(self).__name__} is not listening yet")
        return self._bound

    @property
    def is_running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self, timeout: float = 30.0):
        if self._thread is not None:
            raise ServingError(f"{type(self).__name__} already started")
        self.started_at_monotonic = time.monotonic()
        self._thread = threading.Thread(
            target=self._run_loop, name=self._thread_name, daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            raise ServingError(f"{type(self).__name__} failed to bind in time")
        if self._startup_error is not None:
            self._thread.join(timeout=_STOP_JOIN_S)
            self._thread = None
            raise ServingError(
                f"{type(self).__name__} could not listen on "
                f"{self.host}:{self.port}: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, timeout: float = _STOP_JOIN_S) -> None:
        """Close the listener and every connection; join the loop."""
        if self._thread is None:
            return
        loop, stop_async = self._loop, self._stop_async
        if loop is not None and stop_async is not None:
            try:
                loop.call_soon_threadsafe(stop_async.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        self._thread.join(timeout=timeout)
        self._thread = None

    def serve_forever(self, timeout: Optional[float] = None) -> None:
        """Block the calling thread until :meth:`stop`."""
        if self._thread is None:
            raise ServingError(f"{type(self).__name__} is not running")
        self._finished.wait(timeout=timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Event loop                                                         #
    # ------------------------------------------------------------------ #
    def _run_loop(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - defensive
            if self._startup_error is None:
                self._startup_error = exc
        finally:
            self._ready.set()
            self._finished.set()

    async def _loop_started(self) -> None:
        """Hook: the loop runs and the address is bound; not yet ready."""

    async def _loop_stopping(self) -> None:
        """Hook: the listener closed; connections are about to be."""

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        try:
            listener = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        sock = listener.sockets[0].getsockname()
        self._bound = (sock[0], sock[1])
        await self._loop_started()
        self._ready.set()
        try:
            async with listener:
                await self._stop_async.wait()
        finally:
            await self._loop_stopping()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True
                )

    def _welcome_document(self) -> dict:
        """The WELCOME keys every listener sends; subclasses add theirs."""
        return {
            "protocol": wire.PROTOCOL_VERSION,
            "max_frame_bytes": self.max_frame_bytes,
            "started_at_monotonic": self.started_at_monotonic,
        }

    def _note_connections(self, delta: int) -> None:
        self._open_connections += delta

    def _note_protocol_error(self) -> None:
        """Hook: a malformed frame is closing a connection."""

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        conn = ClientConnection(writer, self._loop, on_sent=self._on_sent)
        self._note_connections(+1)
        conn.frames.write(wire.encode_frame(
            wire.FT_WELCOME, 0, wire.pack_json(self._welcome_document())
        ))
        buffer = wire.FrameBuffer(self.max_frame_bytes)
        try:
            await wire.read_frames(
                reader, buffer, partial(self._on_frame, conn)
            )
            if buffer.mid_frame:
                raise ProtocolError("connection closed mid-frame")
        except ProtocolError as exc:
            self._note_protocol_error()
            conn.send_error(0, wire.ERR_PROTOCOL, str(exc))
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass  # stop(), or a clean / already-reported close
        finally:
            conn.closed = True
            self._inflight -= len(conn.outstanding)
            conn.outstanding.clear()
            self._m_inflight.set(self._inflight)
            self._note_connections(-1)
            conn.frames.flush()
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                # Nothing is left to unwind when stop() lands here, and a
                # handler task that *ends* cancelled makes the 3.11
                # streams callback log a spurious "Exception in callback".
                pass
            self._conn_tasks.discard(task)

    def _on_frame(self, conn: ClientConnection, frame: wire.Frame) -> None:
        if frame.frame_type == wire.FT_REQUEST:
            self._on_request(conn, frame)
        elif frame.frame_type == wire.FT_STATS:
            conn.frames.write(wire.encode_frame(
                wire.FT_STATS_RESULT, frame.request_id,
                wire.pack_json(self._stats_document()),
            ))
        else:
            raise ProtocolError(
                f"unexpected {frame.type_name} frame from a client"
            )


class _CompletionInbox:
    """Worker threads to event loop: one wake-up per batch of completions.

    :meth:`put` (any thread) appends and wakes the loop only if no wake
    is already on its way; the loop clears that flag *before* it starts
    draining, so an item appended during a drain either is seen by that
    drain or schedules the next one — never neither.
    """

    def __init__(self, loop, deliver: Callable[..., None]):
        self._loop = loop
        self._deliver = deliver
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._wake_pending = False

    def put(self, *item) -> None:
        self._items.append(item)
        with self._lock:
            if self._wake_pending:
                return
            self._wake_pending = True
        try:
            self._loop.call_soon_threadsafe(self._drain)
        except RuntimeError:  # loop closed during shutdown
            pass

    def _drain(self) -> None:
        with self._lock:
            self._wake_pending = False
        while self._items:
            self._deliver(*self._items.popleft())


class NetServer(FrameListener):
    """Serve a :class:`RumbaServer` over TCP (see ``docs/protocol.md``).

    Parameters
    ----------
    server:
        The quality-managed server to front.  If it has not been started
        yet, :meth:`start` starts it (and :meth:`stop` then stops it);
        an already-running server is left running on :meth:`stop`.
    host, port:
        Listen address.  Port 0 binds an ephemeral port; read the bound
        address from :attr:`address` after :meth:`start`.
    max_frame_bytes:
        Upper bound on one wire frame.  A length prefix beyond this is
        answered with a typed error and a closed connection *before* any
        allocation happens.
    node_id:
        Stable identity advertised in the WELCOME document (``serve
        --node-id`` on the CLI).  Defaults to a fresh uuid4 hex string,
        so a restarted process behind the same address is detectable by
        any fleet router watching the WELCOME.
    """

    def __init__(
        self,
        server: RumbaServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES,
        node_id: Optional[str] = None,
    ):
        if max_frame_bytes < wire.MIN_FRAME_LENGTH + 64:
            raise ConfigurationError("max_frame_bytes is too small")
        super().__init__(host, port, max_frame_bytes)
        self.server = server
        self.node_id = node_id or uuid.uuid4().hex
        self._completions: Optional[_CompletionInbox] = None
        self._stopping = False
        self._owns_server = False
        self._build_metrics()

    def _build_metrics(self) -> None:
        """Register the ``rumba_net_*`` families; bind every child once."""
        r = self.server.registry
        base = ("app", "scheme")
        labels = {"app": self.server.app_name, "scheme": self.server.scheme}
        self._m_conns_total = r.counter(
            "rumba_net_connections_total",
            "TCP connections accepted", base,
        ).labels(**labels)
        self._m_conns_open = r.gauge(
            "rumba_net_connections",
            "TCP connections currently open", base,
        ).labels(**labels)
        bytes_moved = r.counter(
            "rumba_net_bytes_total",
            "Wire bytes moved, by direction", base + ("direction",),
        )
        self._m_rx = bytes_moved.labels(direction="rx", **labels)
        self._on_sent = bytes_moved.labels(direction="tx", **labels).inc
        self._m_decode_errors = r.counter(
            "rumba_net_decode_errors_total",
            "Malformed frames that closed a connection", base,
        ).labels(**labels)
        self._m_inflight = r.gauge(
            "rumba_net_inflight_requests",
            "Remote requests admitted but not yet answered", base,
        ).labels(**labels)
        requests = r.counter(
            "rumba_net_requests_total",
            "Remote requests by outcome", base + ("outcome",),
        )
        self._m_rejected = requests.labels(outcome="rejected", **labels)
        self._m_failed = requests.labels(outcome="failed", **labels)
        self._m_completed = requests.labels(outcome="completed", **labels)
        # Decode-to-enqueue time per remote request; rides the fine
        # bucket grid via the registry's rumba_net_* override.
        self._m_request_seconds = r.histogram(
            "rumba_net_request_seconds",
            "Server-side time from request decode to response enqueue",
            base,
        ).labels(**labels)

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #
    def start(self, timeout: float = 30.0) -> "NetServer":
        if self._thread is None:
            if self.server.state in ("new", "ready"):
                self.server.start()
                self._owns_server = True
            elif self.server.state != "running":
                raise ServingError(
                    f"cannot front a {self.server.state} server"
                )
        return super().start(timeout)

    def stop(self, timeout: float = _STOP_JOIN_S) -> None:
        """Close the listener and connections; stop an owned server."""
        if self._thread is None:
            return
        # A fence, not a race: a request in flight at stop() fails over
        # to its client's connection-lost path whether or not the
        # teardown below beats its completion.
        self._stopping = True
        super().stop(timeout)
        if self._owns_server:
            self.server.stop()

    async def _loop_started(self) -> None:
        self._completions = _CompletionInbox(self._loop, self._deliver)

    def _note_connections(self, delta: int) -> None:
        super()._note_connections(delta)
        if delta > 0:
            self._m_conns_total.inc()
        self._m_conns_open.set(self._open_connections)

    def _note_protocol_error(self) -> None:
        self._m_decode_errors.inc()

    # ------------------------------------------------------------------ #
    # Frame handling (event-loop thread)                                 #
    # ------------------------------------------------------------------ #
    def _welcome_document(self) -> dict:
        prototype = self.server.prototype
        return dict(
            super()._welcome_document(),
            server="rumba",
            app=self.server.app_name,
            scheme=self.server.scheme,
            backend=self.server.backend,
            features=(
                int(prototype.app.npu_topology.n_inputs)
                if prototype is not None else 0
            ),
            node_id=self.node_id,
        )

    def _stats_document(self) -> dict:
        return self.server.stats()

    def _on_frame(self, conn: ClientConnection, frame: wire.Frame) -> None:
        self._m_rx.inc(4 + wire.MIN_FRAME_LENGTH + len(frame.body))
        super()._on_frame(conn, frame)

    def _on_request(self, conn: ClientConnection, frame: wire.Frame) -> None:
        request_id = frame.request_id
        received_at = time.monotonic()
        try:
            inputs, deadline_s, scheme, trace_id, force_sample = (
                wire.unpack_request(frame.body)
            )
            if scheme and scheme != self.server.scheme:
                raise ConfigurationError(
                    f"this server runs scheme {self.server.scheme!r}; "
                    f"cannot steer request to {scheme!r}"
                )
            # A client-proposed trace id is honoured (distributed-trace
            # continuation); the sampled flag forces export when set and
            # otherwise leaves the decision to the server's policy.
            trace = self.server.tracing.new_trace(
                trace_id=trace_id, force=True if force_sample else None
            )
            if trace is not None:
                trace.stamp(STAGE_NET_RECV, at=received_at)
            handle = self.server.submit(
                inputs, deadline_s=deadline_s, trace=trace
            )
        except Exception as exc:
            self._m_rejected.inc()
            conn.send_error(request_id, wire.exception_to_code(exc), str(exc))
            return
        conn.outstanding.add(request_id)
        self._inflight += 1
        self._m_inflight.set(self._inflight)
        # Runs on the completing worker thread, with the handle as the
        # last argument: the inbox hops to the loop, once per batch.
        handle.add_done_callback(partial(
            self._completions.put,
            conn, request_id, trace, received_at,
        ))

    def _deliver(
        self, conn: ClientConnection, request_id: int, trace,
        received_at: float, handle,
    ) -> None:
        """Event-loop half of completion: encode and queue the answer."""
        if (conn.closed or self._stopping
                or request_id not in conn.outstanding):
            return
        conn.outstanding.discard(request_id)
        self._inflight -= 1
        self._m_inflight.set(self._inflight)
        now = time.monotonic()
        self._m_request_seconds.observe(now - received_at)
        if trace is not None:
            # ``complete`` (stamped in the core) already closed the
            # exported record; the send hop is observed directly so the
            # stage histogram still covers it.
            events = trace.events()
            sent_at = trace.stamp(STAGE_NET_SEND, at=now, clamp=True)
            if trace.sampled and events:
                self.server.observe_stage(
                    STAGE_NET_SEND, sent_at - events[-1][1]
                )
        try:
            result = handle.result(timeout=0)
        except Exception as exc:
            self._m_failed.inc()
            conn.send_error(request_id, wire.exception_to_code(exc), str(exc))
            return
        self._m_completed.inc()
        payload = wire.pack_result(
            outputs=result.outputs,
            worker=result.worker,
            queue_wait_s=result.queue_wait_s,
            latency_s=result.latency_s,
            fix_fraction=result.fix_fraction,
            degraded=result.degraded,
            trace_id=result.trace_id,
            trace_sampled=trace.sampled if trace is not None else False,
        )
        conn.frames.write(
            wire.encode_frame(wire.FT_RESULT, request_id, payload)
        )
