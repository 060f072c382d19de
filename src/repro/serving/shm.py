"""Shared-memory batch transport for the process serving backend.

A :class:`ShmRing` is a single-producer / single-consumer byte ring laid
out in one ``multiprocessing.shared_memory`` segment.  Batches cross the
process boundary as raw float64 blocks — no pickling per batch; pickle is
used exactly once per worker, at startup, to ship the prepared system.

Segment layout::

    bytes [0,  8)   head — consumer's monotonic read counter  (uint64 LE)
    bytes [8, 16)   tail — producer's monotonic write counter (uint64 LE)
    bytes [16, ..)  data region of ``capacity`` bytes (ring storage)

``head``/``tail`` never wrap; positions are ``counter % capacity``.  The
producer only advances ``tail`` and the consumer only advances ``head``,
so no lock is needed: the payload is fully written *before* the tail is
published, and fully read *before* the head is published.

Every message is a **frame**::

    64-byte header  — 8 little-endian int64 slots:
        [magic, kind, seq, n_rows, n_cols, payload_bytes, extra_bytes,
         trace_id]
    payload         — n_rows × n_cols float64 block (C order), may be empty
    extra           — opaque bytes (small metadata), padded to 8 bytes

The final header slot carries the request-trace id of the batch the
frame belongs to (0 = untraced) so stage timing can be correlated
across the process boundary; see :mod:`repro.observability.reqtrace`.

Frame kinds (see :mod:`repro.serving.procpool` for the protocol):
``FRAME_BATCH``, ``FRAME_RESULT``, ``FRAME_ERROR``, ``FRAME_STOP``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ServingError

__all__ = [
    "ShmRing",
    "ShmFrame",
    "FRAME_BATCH",
    "FRAME_RESULT",
    "FRAME_ERROR",
    "FRAME_STOP",
]

FRAME_BATCH = 1    # parent -> worker: one accelerator invocation's inputs
FRAME_RESULT = 2   # worker -> parent: merged outputs + metrics snapshot
FRAME_ERROR = 3    # worker -> parent: a batch failed (extra = pickled exc)
FRAME_STOP = 4     # parent -> worker: exit the worker loop

_MAGIC = 0x52554D42  # "RUMB"
_CTRL_BYTES = 16     # head + tail
_HEADER_BYTES = 64   # 8 x int64
_HEADER_FMT = "<8q"


def _pad8(n: int) -> int:
    return (n + 7) & ~7


@dataclass
class ShmFrame:
    """One decoded frame read off a ring."""

    kind: int
    seq: int
    payload: Optional[np.ndarray]  # (n_rows, n_cols) float64, or None
    extra: bytes
    #: Request-trace id of the batch this frame belongs to (0 = untraced).
    trace_id: int = 0
    #: Total ring bytes the frame occupies (header + padded payload +
    #: padded extra); what :meth:`ShmRing.advance` releases.
    span: int = 0


class ShmRing:
    """SPSC byte ring over one shared-memory segment.

    Exactly one process writes (:meth:`try_write`) and exactly one reads
    (:meth:`try_read`).  The creating side owns the segment's lifetime
    (:meth:`unlink`); attached sides only :meth:`close`.
    """

    def __init__(self, capacity_bytes: int = 1 << 22, name: Optional[str] = None):
        if capacity_bytes < _HEADER_BYTES * 2:
            raise ConfigurationError(
                f"ring capacity must be at least {_HEADER_BYTES * 2} bytes"
            )
        self.capacity = int(capacity_bytes)
        self._owner = True
        self._shm = shared_memory.SharedMemory(
            create=True, size=_CTRL_BYTES + self.capacity, name=name
        )
        self._shm.buf[: _CTRL_BYTES] = b"\x00" * _CTRL_BYTES

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Attach to an existing ring (the other end of the channel)."""
        ring = cls.__new__(cls)
        try:
            # Python >= 3.13: opt out of the resource tracker so the
            # attaching process does not try to clean up the owner's
            # segment at exit.
            ring._shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            # Python < 3.13 has no ``track`` parameter and registers the
            # segment with the resource tracker, which would warn about
            # (and unlink!) the parent-owned segment when the worker
            # exits.  Suppressing ``register`` during attach keeps the
            # tracker out of it entirely; sending ``unregister`` instead
            # would strip the *owner's* registration too (the tracker
            # process is shared), making the owner's later unlink error.
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            resource_tracker.register = lambda *a, **kw: None
            try:
                ring._shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        ring.capacity = ring._shm.size - _CTRL_BYTES
        ring._owner = False
        return ring

    # ------------------------------------------------------------------ #
    # Cursors                                                            #
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self._shm.name

    def _head(self) -> int:
        return struct.unpack_from("<Q", self._shm.buf, 0)[0]

    def _tail(self) -> int:
        return struct.unpack_from("<Q", self._shm.buf, 8)[0]

    def _set_head(self, value: int) -> None:
        struct.pack_into("<Q", self._shm.buf, 0, value)

    def _set_tail(self, value: int) -> None:
        struct.pack_into("<Q", self._shm.buf, 8, value)

    def used_bytes(self) -> int:
        return self._tail() - self._head()

    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes()

    # ------------------------------------------------------------------ #
    # Wrap-aware bulk copies                                             #
    # ------------------------------------------------------------------ #
    def _copy_in(self, counter: int, data: bytes | memoryview) -> None:
        """Write ``data`` into the ring at monotonic position ``counter``."""
        pos = counter % self.capacity
        n = len(data)
        first = min(n, self.capacity - pos)
        base = _CTRL_BYTES
        self._shm.buf[base + pos: base + pos + first] = data[:first]
        if first < n:  # wrap: second part lands at the ring's start
            self._shm.buf[base: base + (n - first)] = data[first:]

    def _copy_out(self, counter: int, n: int) -> bytearray:
        """Read ``n`` bytes from monotonic position ``counter``."""
        pos = counter % self.capacity
        first = min(n, self.capacity - pos)
        base = _CTRL_BYTES
        out = bytearray(n)
        out[:first] = self._shm.buf[base + pos: base + pos + first]
        if first < n:
            out[first:] = self._shm.buf[base: base + (n - first)]
        return out

    # ------------------------------------------------------------------ #
    # Framing                                                            #
    # ------------------------------------------------------------------ #
    def frame_bytes(
        self, payload: Optional[np.ndarray] = None, extra: bytes = b""
    ) -> int:
        """Total ring bytes one frame with this content occupies."""
        payload_bytes = 0 if payload is None else payload.size * 8
        return _HEADER_BYTES + _pad8(payload_bytes) + _pad8(len(extra))

    def try_write(
        self,
        kind: int,
        seq: int = 0,
        payload: Optional[np.ndarray] = None,
        extra: bytes = b"",
        trace_id: int = 0,
    ) -> bool:
        """Append one frame; returns False when the ring lacks space.

        ``payload`` must be 2-D; it is written as a contiguous float64
        block directly into shared memory (no serialization).
        ``trace_id`` rides in the header's final slot (0 = untraced).
        """
        if payload is not None:
            payload = np.ascontiguousarray(payload, dtype=np.float64)
            if payload.ndim != 2:
                raise ConfigurationError("frame payloads must be 2-D")
            n_rows, n_cols = payload.shape
            payload_bytes = payload.size * 8
        else:
            n_rows = n_cols = payload_bytes = 0
        needed = _HEADER_BYTES + _pad8(payload_bytes) + _pad8(len(extra))
        if needed > self.capacity:
            raise ServingError(
                f"frame of {needed} bytes cannot ever fit a "
                f"{self.capacity}-byte ring; raise ring_capacity_bytes"
            )
        if needed > self.free_bytes():
            return False
        tail = self._tail()
        # The slot is a signed int64; u64 trace ids wrap into the sign
        # bit and are unwrapped symmetrically on the read side.
        trace_slot = int(trace_id) & ((1 << 64) - 1)
        if trace_slot >= 1 << 63:
            trace_slot -= 1 << 64
        header = struct.pack(
            _HEADER_FMT, _MAGIC, kind, seq, n_rows, n_cols,
            payload_bytes, len(extra), trace_slot,
        )
        self._copy_in(tail, header)
        offset = tail + _HEADER_BYTES
        if payload_bytes:
            self._copy_in(offset, payload.reshape(-1).view(np.uint8).data)
            offset += _pad8(payload_bytes)
        if extra:
            self._copy_in(offset, extra)
            offset += _pad8(len(extra))
        # Publish only after the frame body is fully in place.
        self._set_tail(tail + needed)
        return True

    def write_rows(
        self,
        kind: int,
        seq: int,
        blocks,
        extra: bytes = b"",
        trace_id: int = 0,
    ) -> bool:
        """Append one frame whose payload is ``blocks`` stacked row-wise.

        Each block (2-D float64) is copied straight into ring memory at
        its running row offset — the whole admission batch crosses the
        process boundary without ever being concatenated into an
        intermediate parent-side buffer.  Returns False when the ring
        lacks space.
        """
        if not blocks:
            raise ConfigurationError("write_rows needs at least one block")
        n_rows = 0
        n_cols = -1
        contiguous = []
        for block in blocks:
            block = np.ascontiguousarray(block, dtype=np.float64)
            if block.ndim != 2:
                raise ConfigurationError("frame payloads must be 2-D")
            if n_cols < 0:
                n_cols = block.shape[1]
            elif block.shape[1] != n_cols:
                raise ConfigurationError(
                    "all blocks in a frame must have the same column count"
                )
            n_rows += block.shape[0]
            contiguous.append(block)
        payload_bytes = n_rows * n_cols * 8
        needed = _HEADER_BYTES + _pad8(payload_bytes) + _pad8(len(extra))
        if needed > self.capacity:
            raise ServingError(
                f"frame of {needed} bytes cannot ever fit a "
                f"{self.capacity}-byte ring; raise ring_capacity_bytes"
            )
        if needed > self.free_bytes():
            return False
        tail = self._tail()
        trace_slot = int(trace_id) & ((1 << 64) - 1)
        if trace_slot >= 1 << 63:
            trace_slot -= 1 << 64
        header = struct.pack(
            _HEADER_FMT, _MAGIC, kind, seq, n_rows, n_cols,
            payload_bytes, len(extra), trace_slot,
        )
        self._copy_in(tail, header)
        offset = tail + _HEADER_BYTES
        for block in contiguous:
            # Block sizes are multiples of 8 bytes (float64 rows), so every
            # block lands 8-aligned at its running offset.
            self._copy_in(offset, block.reshape(-1).view(np.uint8).data)
            offset += block.size * 8
        offset = tail + _HEADER_BYTES + _pad8(payload_bytes)
        if extra:
            self._copy_in(offset, extra)
        self._set_tail(tail + needed)
        return True

    def try_read(self, zero_copy: bool = False) -> Optional[ShmFrame]:
        """Pop the next frame; None when the ring is empty.

        Default mode copies the payload out **once** (ring memory → one
        owned array) and advances the read cursor before returning.

        ``zero_copy=True`` returns the payload as a view of ring memory
        when the frame does not wrap (frame offsets are 8-aligned by
        construction, so the view is a straight ``np.frombuffer``) and
        does **not** advance the cursor: the view is valid until the
        caller passes the frame to :meth:`advance`, which releases its
        bytes back to the producer.  A wrapped payload is gathered into a
        private array either way (the frame must still be advanced).
        """
        head = self._head()
        if self._tail() - head < _HEADER_BYTES:
            return None
        pos = head % self.capacity
        if self.capacity - pos >= _HEADER_BYTES:
            header = struct.unpack_from(
                _HEADER_FMT, self._shm.buf, _CTRL_BYTES + pos
            )
        else:
            header = struct.unpack(
                _HEADER_FMT, bytes(self._copy_out(head, _HEADER_BYTES))
            )
        (magic, kind, seq, n_rows, n_cols, payload_bytes, extra_bytes,
         trace_slot) = header
        if magic != _MAGIC:
            raise ServingError(
                f"shm ring corrupted: bad frame magic {magic:#x}"
            )
        span = _HEADER_BYTES + _pad8(payload_bytes) + _pad8(extra_bytes)
        offset = head + _HEADER_BYTES
        payload: Optional[np.ndarray] = None
        if payload_bytes:
            ppos = offset % self.capacity
            if self.capacity - ppos >= payload_bytes:
                view = np.frombuffer(
                    self._shm.buf,
                    dtype=np.float64,
                    count=payload_bytes // 8,
                    offset=_CTRL_BYTES + ppos,
                ).reshape(n_rows, n_cols)
                payload = view if zero_copy else view.copy()
            else:
                # Wrapped frame: gather the two halves (one copy); the
                # result owns its memory, so it survives advance either way.
                raw = self._copy_out(offset, payload_bytes)
                payload = np.frombuffer(raw, dtype=np.float64).reshape(
                    n_rows, n_cols
                )
            offset += _pad8(payload_bytes)
        extra = b""
        if extra_bytes:
            extra = bytes(self._copy_out(offset, extra_bytes))
        if not zero_copy:
            # Release the frame's bytes only after they are fully copied out.
            self._set_head(head + span)
        return ShmFrame(
            kind=kind, seq=seq, payload=payload, extra=extra,
            trace_id=trace_slot & ((1 << 64) - 1),
            span=span,
        )

    def advance(self, frame: ShmFrame) -> None:
        """Release a ``zero_copy`` frame's bytes back to the producer.

        Must be called exactly once per zero-copy frame, in read order;
        any ring-memory payload view becomes invalid (the producer may
        overwrite it) the moment this returns.
        """
        self._set_head(self._head() + frame.span)

    # ------------------------------------------------------------------ #
    # Lifetime                                                           #
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Unmap the segment.  Raises :class:`BufferError` while a
        ``zero_copy`` payload view is alive — drop it first: swallowing
        that here only moved the error into ``SharedMemory.__del__``,
        where nobody can catch it."""
        try:
            self._shm.close()
        except OSError:  # pragma: no cover - teardown races
            pass

    def unlink(self) -> None:
        """Destroy the segment; only the creating side may call this."""
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
