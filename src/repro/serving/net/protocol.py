"""The versioned binary wire protocol (spec: ``docs/protocol.md``).

Every message on the TCP stream is one **frame**::

    uint32 LE   length       bytes that follow (header + body + crc)
    uint32 LE   magic        0x52554D42  ("RUMB", same as the shm rings)
    uint16 LE   version      a member of SUPPORTED_VERSIONS
    uint16 LE   frame type   FT_* below
    uint64 LE   request id   caller-chosen; echoed on the response
    bytes       body         type-specific payload
    uint32 LE   crc32        zlib.crc32 over magic..body

Version 2 (the current :data:`PROTOCOL_VERSION`) extends the REQUEST
and RESULT bodies with a trailing **trace block** (u64 trace id + u8
flags) carrying the distributed-tracing context of
:mod:`repro.observability.reqtrace`.  Version 1 frames remain fully
accepted: decoders parse each body according to the *frame's* version,
and the server answers every frame in the version it arrived with, so
old clients keep working unchanged.

The CRC closes the same integrity gap the shm transport closes with its
framed magic: a torn or corrupted frame is *detected* (typed
:class:`~repro.errors.ProtocolError`, connection closed) rather than
decoded into garbage inputs.  The hot path — request inputs, result
outputs — is raw float64 blocks; control bodies (WELCOME, STATS) are
small JSON documents.

Decoders in this module raise :class:`ProtocolError` on any malformed
frame and never raise anything else for bad bytes; both the server and
the clients rely on that contract.

Every endpoint shares one implementation of each half of the TCP edge:
:class:`FrameBuffer` (bytes in, frames out) and :class:`FrameWriter`
(one ``transport.write`` per event-loop iteration).  The cluster router
relays bodies with :func:`relay_request` / :func:`relay_result`, which
patch the fields a gateway owns and never copy the matrix.
"""

from __future__ import annotations

import json
import struct
import zlib
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    OverloadedError,
    ProtocolError,
    ReproError,
    ServingError,
    WorkerCrashError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MIN_SUPPORTED_VERSION",
    "SUPPORTED_VERSIONS",
    "MAGIC",
    "DEFAULT_MAX_FRAME_BYTES",
    "FT_WELCOME",
    "FT_REQUEST",
    "FT_RESULT",
    "FT_ERROR",
    "FT_STATS",
    "FT_STATS_RESULT",
    "FT_FLIGHT",
    "FT_JOURNAL",
    "FRAME_TYPE_NAMES",
    "FLAG_TRACE_SAMPLED",
    "ERR_INTERNAL",
    "ERR_SERVING",
    "ERR_OVERLOADED",
    "ERR_CONFIGURATION",
    "ERR_WORKER_CRASH",
    "ERR_PROTOCOL",
    "ProtocolError",
    "Frame",
    "MIN_FRAME_LENGTH",
    "encode_frame",
    "decode_frame",
    "check_frame_length",
    "FrameBuffer",
    "FrameWriter",
    "READ_BYTES",
    "read_frames",
    "pack_request",
    "unpack_request",
    "peek_request",
    "relay_request",
    "RequestView",
    "pack_result",
    "unpack_result",
    "peek_result",
    "relay_result",
    "ResultView",
    "pack_error",
    "unpack_error",
    "pack_json",
    "unpack_json",
    "exception_to_code",
    "code_to_exception",
    "parse_address",
]

#: The version this end emits by default.  v2 added the request/result
#: trace block; v1 frames are still accepted (and answered in v1).
PROTOCOL_VERSION = 2
MIN_SUPPORTED_VERSION = 1
SUPPORTED_VERSIONS = (1, 2)
MAGIC = 0x52554D42  # "RUMB" — shared with the shm ring frames
#: Default bound on one frame; an advertised length beyond this is a
#: protocol error and closes the connection before any allocation.
DEFAULT_MAX_FRAME_BYTES = 16 << 20

# Frame types.
FT_WELCOME = 1       # server -> client, once per connection (JSON body)
FT_REQUEST = 2       # client -> server: one invocation request
FT_RESULT = 3        # server -> client: one completed request
FT_ERROR = 4         # server -> client: one failed request (typed)
FT_STATS = 5         # client -> server: health/stats probe (empty body)
FT_STATS_RESULT = 6  # server -> client: stats() as JSON
FT_FLIGHT = 7        # flight-recorder log record (never sent on a socket)
FT_JOURNAL = 8       # request-journal log record (never sent on a socket)

FRAME_TYPE_NAMES: Dict[int, str] = {
    FT_WELCOME: "WELCOME",
    FT_REQUEST: "REQUEST",
    FT_RESULT: "RESULT",
    FT_ERROR: "ERROR",
    FT_STATS: "STATS",
    FT_STATS_RESULT: "STATS_RESULT",
    FT_FLIGHT: "FLIGHT",
    FT_JOURNAL: "JOURNAL",
}

#: Trace-block flag bits (v2 REQUEST/RESULT bodies).  On a REQUEST the
#: bit asks the server to force-sample this request; on a RESULT it
#: reports whether the request was sampled into the flight recorder.
FLAG_TRACE_SAMPLED = 0x01

_TRACE_FMT = "<QB"  # trace id, flags
_TRACE_BYTES = struct.calcsize(_TRACE_FMT)

# Error codes carried by FT_ERROR frames.
ERR_INTERNAL = 0       # unexpected server-side failure
ERR_SERVING = 1        # ServingError (lifecycle, retry/deadline exhaustion)
ERR_OVERLOADED = 2     # OverloadedError (admission shed; back off + retry)
ERR_CONFIGURATION = 3  # ConfigurationError (bad inputs/options)
ERR_WORKER_CRASH = 4   # WorkerCrashError surfaced unretried
ERR_PROTOCOL = 5       # malformed frame; the connection is closing

_HEADER_FMT = "<IHHQ"                      # magic, version, type, request id
_HEADER_BYTES = struct.calcsize(_HEADER_FMT)
_CRC_BYTES = 4
_LEN_BYTES = 4
#: Smallest legal value of the length prefix (empty body).
MIN_FRAME_LENGTH = _HEADER_BYTES + _CRC_BYTES


@dataclass(frozen=True)
class Frame:
    """One decoded frame: type, request id, raw body bytes, wire version."""

    frame_type: int
    request_id: int
    body: bytes
    version: int = PROTOCOL_VERSION

    @property
    def type_name(self) -> str:
        return FRAME_TYPE_NAMES.get(self.frame_type, f"#{self.frame_type}")


# --------------------------------------------------------------------- #
# Frame envelope                                                        #
# --------------------------------------------------------------------- #
def _seal(frame_type: int, request_id: int, version: int, *parts) -> bytes:
    """Length prefix + header + ``parts`` + CRC, joined in one copy."""
    header = struct.pack(_HEADER_FMT, MAGIC, version, frame_type, request_id)
    crc = zlib.crc32(header)
    length = _HEADER_BYTES + _CRC_BYTES
    for part in parts:
        crc = zlib.crc32(part, crc)
        length += len(part)
    return b"".join(
        (struct.pack("<I", length), header, *parts, struct.pack("<I", crc))
    )


def encode_frame(
    frame_type: int,
    request_id: int,
    body: bytes = b"",
    version: int = PROTOCOL_VERSION,
) -> bytes:
    """Serialize one frame, length prefix through CRC."""
    if version not in SUPPORTED_VERSIONS:
        raise ConfigurationError(
            f"cannot encode protocol version {version}; "
            f"supported: {SUPPORTED_VERSIONS}"
        )
    return _seal(frame_type, request_id, version, body)


def decode_frame(blob: bytes) -> Frame:
    """Decode the bytes after the length prefix; raises ProtocolError."""
    if len(blob) < MIN_FRAME_LENGTH:
        raise ProtocolError(
            f"truncated frame: {len(blob)} bytes < minimum "
            f"{MIN_FRAME_LENGTH}"
        )
    checked, crc_bytes = blob[:-_CRC_BYTES], blob[-_CRC_BYTES:]
    (crc,) = struct.unpack("<I", crc_bytes)
    actual = zlib.crc32(checked) & 0xFFFFFFFF
    if crc != actual:
        raise ProtocolError(
            f"frame CRC mismatch: header says {crc:#010x}, "
            f"payload hashes to {actual:#010x}"
        )
    magic, version, frame_type, request_id = struct.unpack_from(
        _HEADER_FMT, checked
    )
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic:#010x}")
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this end speaks {SUPPORTED_VERSIONS})"
        )
    if frame_type not in FRAME_TYPE_NAMES:
        raise ProtocolError(f"unknown frame type {frame_type}")
    return Frame(
        frame_type=frame_type,
        request_id=request_id,
        body=checked[_HEADER_BYTES:],
        version=version,
    )


def check_frame_length(length: int, max_frame_bytes: int) -> int:
    """Validate a just-read length prefix before allocating for it."""
    if length < MIN_FRAME_LENGTH:
        raise ProtocolError(
            f"frame length prefix {length} below minimum {MIN_FRAME_LENGTH}"
        )
    if length > max_frame_bytes:
        raise ProtocolError(
            f"frame length prefix {length} exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    return length


# --------------------------------------------------------------------- #
# The TCP edge: bytes -> frames, frames -> one write per loop tick      #
# --------------------------------------------------------------------- #
class FrameBuffer:
    """Reassemble frames from a byte stream, however it was split.

    ``for frame in buffer.feed(data)`` yields each frame ``data``
    completes — length prefix checked before its body is awaited, then
    CRC, then header — and raises :class:`ProtocolError` at a malformed
    one, after the frames before it.  Frames left unconsumed stay
    buffered for the next ``feed``.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buf = bytearray()
        self._pos = 0  # consumed prefix of _buf, dropped on the next feed

    @property
    def mid_frame(self) -> bool:
        """True when a length prefix arrived but not yet its whole frame."""
        return len(self._buf) - self._pos >= _LEN_BYTES

    def feed(self, data: bytes) -> Iterator[Frame]:
        if self._pos:
            del self._buf[:self._pos]
            self._pos = 0
        self._buf += data
        return self._frames()

    def _frames(self) -> Iterator[Frame]:
        buf = self._buf
        while len(buf) - self._pos >= _LEN_BYTES:
            start = self._pos + _LEN_BYTES
            end = start + check_frame_length(
                int.from_bytes(buf[self._pos:start], "little"),
                self.max_frame_bytes,
            )
            if len(buf) < end:
                return
            self._pos = end
            yield decode_frame(bytes(buf[start:end]))


READ_BYTES = 1 << 16  # per socket read: a burst of small frames at once


async def read_frames(reader, buffer: FrameBuffer, on_frame) -> None:
    """Run ``on_frame(frame)`` for every frame until the peer's EOF.

    One wake-up and one ``reader.read`` (an asyncio ``StreamReader``)
    per burst, not two per frame.  After it returns,
    :attr:`FrameBuffer.mid_frame` tells a torn frame from a clean close;
    :class:`ProtocolError` and socket errors propagate.
    """
    data = b""  # frames a WELCOME read left buffered come first
    while True:
        for frame in buffer.feed(data):
            on_frame(frame)
        data = await reader.read(READ_BYTES)
        if not data:
            return


class FrameWriter:
    """Coalesce the frames of one event-loop iteration into one write.

    The first :meth:`write` of a burst schedules :meth:`flush` with
    ``loop.call_soon``: it runs right behind the callbacks ready now,
    before the loop can block, so a lone frame leaves as promptly as a
    direct ``transport.write`` and a burst leaves in one ``send``, bytes
    and order unchanged.  No timer, no threshold.  Event-loop only.

    ``on_sent(n_bytes)`` follows a successful write; a failed one (or a
    closing transport) drops the burst and tells ``on_error``.
    """

    def __init__(self, transport, loop,
                 on_sent: Optional[Callable[[int], None]] = None,
                 on_error: Optional[Callable[[BaseException], None]] = None):
        self._transport = transport
        self._loop = loop
        self._on_sent = on_sent
        self._on_error = on_error
        self._chunks: List[bytes] = []

    def is_closing(self) -> bool:
        return self._transport.is_closing()

    def write(self, blob: bytes) -> None:
        if not self._chunks:
            self._loop.call_soon(self.flush)
        self._chunks.append(blob)

    def flush(self) -> None:
        """Send what is queued now (also called directly before a close)."""
        chunks, self._chunks = self._chunks, []
        if not chunks:
            return
        data = chunks[0] if len(chunks) == 1 else b"".join(chunks)
        try:
            if self._transport.is_closing():
                raise ConnectionResetError("transport is closing")
            self._transport.write(data)
        except (ConnectionError, OSError) as exc:
            if self._on_error is not None:
                self._on_error(exc)
            return
        if self._on_sent is not None:
            self._on_sent(len(data))


# --------------------------------------------------------------------- #
# Bodies                                                                #
# --------------------------------------------------------------------- #
def _matrix_bytes(matrix: np.ndarray) -> Tuple[bytes, int, int]:
    matrix = np.ascontiguousarray(np.atleast_2d(matrix), dtype=np.float64)
    if matrix.ndim != 2:
        raise ConfigurationError("wire payloads must be 2-D float64 blocks")
    return matrix.tobytes(order="C"), matrix.shape[0], matrix.shape[1]


def _copy_matrix(body, n_rows: int, n_cols: int, end: int) -> np.ndarray:
    return np.frombuffer(
        body, dtype=np.float64, count=n_rows * n_cols,
        offset=end - n_rows * n_cols * 8,
    ).reshape(n_rows, n_cols).copy()


def _read_str(body: bytes, offset: int, width_fmt: str = "<H") -> Tuple[str, int]:
    width = struct.calcsize(width_fmt)
    if len(body) < offset + width:
        raise ProtocolError("frame body truncated before string length")
    (n,) = struct.unpack_from(width_fmt, body, offset)
    offset += width
    if len(body) < offset + n:
        raise ProtocolError("frame body truncated inside string")
    try:
        text = body[offset: offset + n].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable string field: {exc}") from None
    return text, offset + n


def _trace_block(trace_id: int, sampled: bool) -> bytes:
    flags = FLAG_TRACE_SAMPLED if sampled else 0
    return struct.pack(_TRACE_FMT, trace_id, flags)


def _peek_body(body: bytes, offset: int, version: int, kind: str) -> tuple:
    """Validate string, matrix block and tail from ``offset`` to the end.

    Returns ``(text, matrix header offset, n_rows, n_cols, matrix end,
    trace_id, sampled)`` — the tail of both view tuples.
    """
    text, offset = _read_str(body, offset)
    if len(body) < offset + 8:
        raise ProtocolError("frame body truncated before matrix header")
    n_rows, n_cols = struct.unpack_from("<II", body, offset)
    n_bytes = n_rows * n_cols * 8
    end = offset + 8 + n_bytes
    if len(body) < end:
        raise ProtocolError(
            f"frame body truncated: matrix claims {n_rows}x{n_cols} "
            f"({n_bytes} bytes) but only {len(body) - offset - 8} remain"
        )
    trace_id, flags, tail = 0, 0, end
    if version >= 2:  # the trailing trace block
        if len(body) < end + _TRACE_BYTES:
            raise ProtocolError(f"{kind} body truncated before trace block")
        trace_id, flags = struct.unpack_from(_TRACE_FMT, body, end)
        tail += _TRACE_BYTES
    if tail != len(body):
        raise ProtocolError(
            f"{kind} body has {len(body) - tail} trailing bytes"
        )
    return (
        text, offset, n_rows, n_cols, end,
        trace_id, bool(flags & FLAG_TRACE_SAMPLED),
    )


def pack_request(
    inputs: np.ndarray,
    deadline_s: Optional[float] = None,
    scheme: str = "",
    trace_id: int = 0,
    force_sample: bool = False,
    version: int = PROTOCOL_VERSION,
) -> bytes:
    """REQUEST body: deadline, scheme steering option, input block.

    ``deadline_s`` is the request's total time budget (NaN on the wire
    means "use the server default"); ``scheme`` is the per-request
    steering option — the empty string accepts whatever scheme the
    server runs.  From version 2 a trailing trace block follows the
    input block: ``trace_id`` propagates a caller-held trace (0 asks
    the server to assign one) and ``force_sample`` requests promotion
    past the server's 1/N sampling.  Version 1 omits the block.
    """
    data, n_rows, n_cols = _matrix_bytes(inputs)
    scheme_b = scheme.encode("utf-8")
    body = (
        struct.pack("<d", float("nan") if deadline_s is None else deadline_s)
        + struct.pack("<H", len(scheme_b)) + scheme_b
        + struct.pack("<II", n_rows, n_cols) + data
    )
    if version >= 2:
        body += _trace_block(trace_id, force_sample)
    return body


#: A validated REQUEST body with the matrix left where it is:
#: ``matrix_start`` is the offset of its header, ``matrix_end`` one past
#: its float64 block.  v1 bodies report ``trace_id=0, force_sample=False``.
RequestView = namedtuple("RequestView", (
    "deadline_s", "scheme", "matrix_start", "n_rows", "n_cols",
    "matrix_end", "trace_id", "force_sample",
))


def peek_request(body: bytes, version: int = PROTOCOL_VERSION) -> RequestView:
    """Validate a whole REQUEST body of wire ``version`` without copying.

    Checks everything a full decode would — string bounds and UTF-8,
    matrix dims against the bytes that remain, the v2 trace block, no
    trailing bytes — so a body that passes can be relayed or decoded.
    """
    if len(body) < 8:
        raise ProtocolError("REQUEST body truncated before deadline")
    (deadline,) = struct.unpack_from("<d", body, 0)
    return RequestView(
        deadline if math.isfinite(deadline) else None,
        *_peek_body(body, 8, version, "REQUEST"),
    )


def unpack_request(
    body: bytes, version: int = PROTOCOL_VERSION
) -> Tuple[np.ndarray, Optional[float], str, int, bool]:
    """Decode a REQUEST body of the given wire ``version``.

    Returns ``(inputs, deadline_s, scheme, trace_id, force_sample)``.
    """
    view = peek_request(body, version)
    return (
        _copy_matrix(body, view.n_rows, view.n_cols, view.matrix_end),
        view.deadline_s, view.scheme, view.trace_id, view.force_sample,
    )


def relay_request(
    body: bytes, view: RequestView, request_id: int, deadline_s: float,
    trace_id: int, version: int,
) -> bytes:
    """Re-frame a peeked REQUEST for the next hop, as a whole frame.

    Rewrites what a gateway owns (request id, ``version``, remaining
    deadline, trace block: written for a v2 hop, left off for v1) and
    the CRC; scheme and matrix bytes pass through.  Byte-identical to
    ``unpack_request`` -> ``pack_request`` -> ``encode_frame``.
    """
    passed_through = memoryview(body)[8:view.matrix_end]
    parts = [struct.pack("<d", deadline_s), passed_through]
    if version >= 2:
        parts.append(_trace_block(trace_id, view.force_sample))
    return _seal(FT_REQUEST, request_id, version, *parts)


def pack_result(
    outputs: np.ndarray,
    worker: str,
    queue_wait_s: float,
    latency_s: float,
    fix_fraction: float,
    degraded: bool,
    trace_id: int = 0,
    trace_sampled: bool = False,
    version: int = PROTOCOL_VERSION,
) -> bytes:
    """RESULT body: quality/latency metadata + output block.

    From version 2 a trailing trace block echoes the server-assigned
    ``trace_id`` (clients surface it on :class:`NetResult`) and reports
    whether the request was sampled into the flight recorder.
    """
    data, n_rows, n_cols = _matrix_bytes(outputs)
    worker_b = worker.encode("utf-8")
    body = (
        struct.pack(
            "<dddB", queue_wait_s, latency_s, fix_fraction, int(degraded)
        )
        + struct.pack("<H", len(worker_b)) + worker_b
        + struct.pack("<II", n_rows, n_cols) + data
    )
    if version >= 2:
        body += _trace_block(trace_id, trace_sampled)
    return body


#: A validated RESULT body; offsets as in :data:`RequestView`.
ResultView = namedtuple("ResultView", (
    "worker", "matrix_start", "n_rows", "n_cols", "matrix_end",
    "trace_id", "trace_sampled",
))


def peek_result(body: bytes, version: int = PROTOCOL_VERSION) -> ResultView:
    """Validate a whole RESULT body of wire ``version`` without copying."""
    if len(body) < 25:
        raise ProtocolError("RESULT body truncated before metadata")
    return ResultView(*_peek_body(body, 25, version, "RESULT"))


def unpack_result(
    body: bytes, version: int = PROTOCOL_VERSION
) -> Dict[str, object]:
    view = peek_result(body, version)
    queue_wait, latency, fix_fraction, degraded = struct.unpack_from(
        "<dddB", body, 0
    )
    return {
        "outputs": _copy_matrix(
            body, view.n_rows, view.n_cols, view.matrix_end
        ),
        "worker": view.worker,
        "queue_wait_s": queue_wait,
        "latency_s": latency,
        "fix_fraction": fix_fraction,
        "degraded": bool(degraded),
        "trace_id": view.trace_id,
        "trace_sampled": view.trace_sampled,
    }


def relay_result(
    body: bytes, view: ResultView, request_id: int, worker_prefix: str,
    trace_id: int, version: int,
) -> bytes:
    """Re-frame a peeked RESULT for the client, as a whole frame.

    Rewrites request id, ``version``, the worker name (prefixed:
    ``node/worker``), the trace block (the node's id, or ``trace_id``
    when a v1 node sent none; left off for a v1 client) and the CRC;
    metadata and matrix bytes pass through.  Byte-identical to
    ``unpack_result`` -> ``pack_result`` -> ``encode_frame``.
    """
    worker_b = (worker_prefix + view.worker).encode("utf-8")
    if len(worker_b) > 0xFFFF:
        raise ProtocolError("RESULT worker name exceeds 65535 bytes")
    parts = [
        body[:24], b"\x01" if body[24] else b"\x00",
        struct.pack("<H", len(worker_b)), worker_b,
        memoryview(body)[view.matrix_start:view.matrix_end],
    ]
    if version >= 2:
        parts.append(
            _trace_block(view.trace_id or trace_id, view.trace_sampled)
        )
    return _seal(FT_RESULT, request_id, version, *parts)


def pack_error(code: int, message: str) -> bytes:
    """ERROR body: error code + human-readable message."""
    message_b = message.encode("utf-8")[:65000]
    return struct.pack("<H", code) + struct.pack(
        "<I", len(message_b)
    ) + message_b


def unpack_error(body: bytes) -> Tuple[int, str]:
    if len(body) < 2:
        raise ProtocolError("ERROR body truncated before code")
    (code,) = struct.unpack_from("<H", body, 0)
    message, offset = _read_str(body, 2, width_fmt="<I")
    if offset != len(body):
        raise ProtocolError(
            f"ERROR body has {len(body) - offset} trailing bytes"
        )
    return code, message


def pack_json(document: Dict[str, object]) -> bytes:
    """Control body (WELCOME / STATS_RESULT): compact UTF-8 JSON."""
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def unpack_json(body: bytes) -> Dict[str, object]:
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable JSON control body: {exc}") from None
    if not isinstance(document, dict):
        raise ProtocolError("JSON control body must be an object")
    return document


# --------------------------------------------------------------------- #
# Error mapping                                                         #
# --------------------------------------------------------------------- #
#: Most-specific-first: the first row an exception isinstance-matches wins.
_EXCEPTION_CODES = (
    (ProtocolError, ERR_PROTOCOL),
    (OverloadedError, ERR_OVERLOADED),
    (WorkerCrashError, ERR_WORKER_CRASH),
    (ConfigurationError, ERR_CONFIGURATION),
    (ServingError, ERR_SERVING),
)

_CODE_EXCEPTIONS = {
    ERR_INTERNAL: ServingError,
    ERR_SERVING: ServingError,
    ERR_OVERLOADED: OverloadedError,
    ERR_CONFIGURATION: ConfigurationError,
    ERR_WORKER_CRASH: WorkerCrashError,
    ERR_PROTOCOL: ProtocolError,
}


def exception_to_code(exc: BaseException) -> int:
    """The wire code for a server-side exception (ERR_INTERNAL fallback)."""
    for exc_type, code in _EXCEPTION_CODES:
        if isinstance(exc, exc_type):
            return code
    return ERR_INTERNAL


def code_to_exception(code: int, message: str) -> ReproError:
    """Rehydrate a typed client-side exception from an ERROR frame."""
    return _CODE_EXCEPTIONS.get(code, ServingError)(message)


# --------------------------------------------------------------------- #
# Addresses                                                             #
# --------------------------------------------------------------------- #
def parse_address(address) -> Tuple[str, int]:
    """Normalize ``"host:port"`` / ``(host, port)`` into a (host, port).

    IPv6 literals use the bracketed form (``"[::1]:9000"``).
    """
    if isinstance(address, tuple) and len(address) == 2:
        return str(address[0]), int(address[1])
    if not isinstance(address, str):
        raise ConfigurationError(
            f"address must be 'host:port' or a (host, port) tuple, "
            f"got {address!r}"
        )
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"address {address!r} is missing a ':port' suffix"
        )
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        return host, int(port)
    except ValueError:
        raise ConfigurationError(
            f"address {address!r} has a non-numeric port"
        ) from None
