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

Every message is a **frame** whose span is a multiple of 64 bytes::

    64-byte header  — 8 little-endian 64-bit slots, the last unsigned:
        [magic, kind, seq, n_rows, n_cols, payload_bytes, extra_bytes,
         trace_id]
    payload         — n_rows × n_cols float64 block (C order), may be empty
    extra           — opaque bytes (small metadata), padded to 8 bytes

The final header slot carries the request-trace id of the batch the
frame belongs to (0 = untraced) so stage timing can be correlated
across the process boundary; see :mod:`repro.observability.reqtrace`.

Frames never split.  A frame that would straddle the end of the data
region is written at offset 0, behind a ``FRAME_PAD`` header that fills
the rest of the lap and that the consumer skips.  The producer also
returns to offset 0 whenever the released bytes before the consumer's
position can hold the frame, so a ring whose consumer keeps up touches
only the bytes in flight plus one frame, not its ``capacity``; the
pages beyond are never made resident.  Every header, a PAD's included,
is magic-checked on read.  A frame larger than half the capacity may
fit only once the consumer has skipped a PAD the producer published, so
a producer that is refused wakes its consumer before it retries (see
:mod:`repro.serving.procpool`).

Frame kinds (see :mod:`repro.serving.procpool` for the protocol):
``FRAME_BATCH``, ``FRAME_RESULT``, ``FRAME_ERROR``, ``FRAME_STOP``, and
the ring's own ``FRAME_PAD``.
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
    "FRAME_PAD",
]

FRAME_BATCH = 1    # parent -> worker: one accelerator invocation's inputs
FRAME_RESULT = 2   # worker -> parent: merged outputs + metrics snapshot
FRAME_ERROR = 3    # worker -> parent: a batch failed (extra = pickled exc)
FRAME_STOP = 4     # parent -> worker: exit the worker loop
FRAME_PAD = 5      # ring filler: the rest of the lap is unused

_MAGIC = 0x52554D42  # "RUMB"
_CTRL_BYTES = 16     # head + tail
_HEADER_BYTES = 64   # 8 x int64; also the unit every frame span rounds to
_HEADER_FMT = "<7qQ"  # the trace id is a u64


def _pad8(n: int) -> int:
    return (n + 7) & ~7


def _span(payload_bytes: int, extra_bytes: int) -> int:
    """Ring bytes of one frame: whole 64-byte units, so a PAD always fits."""
    n = _HEADER_BYTES + _pad8(payload_bytes) + _pad8(extra_bytes)
    return -(-n // _HEADER_BYTES) * _HEADER_BYTES


@dataclass
class ShmFrame:
    """One decoded frame read off a ring."""

    kind: int
    seq: int
    payload: Optional[np.ndarray]  # (n_rows, n_cols) float64, or None
    extra: bytes
    #: Request-trace id of the batch this frame belongs to (0 = untraced).
    trace_id: int = 0
    #: Ring bytes the frame occupies, header to padded extra, in whole
    #: 64-byte units; what :meth:`ShmRing.advance` releases.
    span: int = 0


class ShmRing:
    """SPSC byte ring over one shared-memory segment.

    Exactly one process writes (:meth:`try_write`, :meth:`write_rows`)
    and exactly one reads (:meth:`try_read`).  The creating side owns the
    segment's lifetime (:meth:`unlink`); attached sides only
    :meth:`close`.  ``capacity`` is ``capacity_bytes`` rounded down to
    whole 64-byte units.
    """

    def __init__(self, capacity_bytes: int = 1 << 22, name: Optional[str] = None):
        if capacity_bytes < _HEADER_BYTES * 2:
            raise ConfigurationError(
                f"ring capacity must be at least {_HEADER_BYTES * 2} bytes"
            )
        self.capacity = int(capacity_bytes) // _HEADER_BYTES * _HEADER_BYTES
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
        size = ring._shm.size - _CTRL_BYTES
        ring.capacity = size // _HEADER_BYTES * _HEADER_BYTES
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

    # ------------------------------------------------------------------ #
    # Framing                                                            #
    # ------------------------------------------------------------------ #
    def frame_bytes(
        self, payload: Optional[np.ndarray] = None, extra: bytes = b""
    ) -> int:
        """Total ring bytes one frame with this content occupies."""
        return _span(0 if payload is None else payload.size * 8, len(extra))

    def _reserve(self, needed: int) -> Optional[int]:
        """The tail counter at which a frame of ``needed`` bytes goes, or
        None while the bytes the reader has released cannot hold it.

        Returns to offset 0 — behind a published PAD — when the frame
        would straddle the end of the data region, or when the released
        bytes before the reader's position can hold it.
        """
        if needed > self.capacity:
            raise ServingError(
                f"frame of {needed} bytes cannot ever fit a "
                f"{self.capacity}-byte ring; raise ring_capacity_bytes"
            )
        head, tail = self._head(), self._tail()
        pos, hpos = tail % self.capacity, head % self.capacity
        if pos and (pos > hpos or head == tail):
            # In flight are [hpos, pos); released are [pos, end), [0, hpos).
            if hpos < needed <= self.capacity - pos:
                return tail
            struct.pack_into(
                _HEADER_FMT, self._shm.buf, _CTRL_BYTES + pos,
                _MAGIC, FRAME_PAD, 0, 0, 0, 0, 0, 0,
            )
            tail += self.capacity - pos
            self._set_tail(tail)
        # The released bytes run on from the tail's position: count them from
        # the head read above, not a newer one whose freed bytes may not join.
        if needed > self.capacity - (tail - head):
            return None
        return tail

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
        blocks = () if payload is None else (payload,)
        return self._write(kind, seq, blocks, extra, trace_id)

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
        return self._write(kind, seq, blocks, extra, trace_id)

    def _write(self, kind, seq, blocks, extra, trace_id) -> bool:
        n_rows = n_cols = 0
        contiguous = []
        for block in blocks:
            block = np.ascontiguousarray(block, dtype=np.float64)
            if block.ndim != 2:
                raise ConfigurationError("frame payloads must be 2-D")
            if not contiguous:
                n_cols = block.shape[1]
            elif block.shape[1] != n_cols:
                raise ConfigurationError(
                    "all blocks in a frame must have the same column count"
                )
            n_rows += block.shape[0]
            contiguous.append(block)
        payload_bytes = n_rows * n_cols * 8
        needed = _span(payload_bytes, len(extra))
        tail = self._reserve(needed)
        if tail is None:
            return False
        buf = self._shm.buf
        offset = _CTRL_BYTES + tail % self.capacity
        struct.pack_into(
            _HEADER_FMT, buf, offset, _MAGIC, kind, seq, n_rows, n_cols,
            payload_bytes, len(extra), int(trace_id) & ((1 << 64) - 1),
        )
        offset += _HEADER_BYTES
        for block in contiguous:
            # Block sizes are multiples of 8 bytes (float64 rows), so every
            # block lands 8-aligned at its running offset.
            buf[offset: offset + block.size * 8] = (
                block.reshape(-1).view(np.uint8).data
            )
            offset += block.size * 8
        if extra:
            buf[offset: offset + len(extra)] = extra
        # Publish only after the frame body is fully in place.
        self._set_tail(tail + needed)
        return True

    def try_read(self, zero_copy: bool = False) -> Optional[ShmFrame]:
        """Pop the next frame; None when the ring is empty.

        Default mode copies the payload out **once** (ring memory → one
        owned array) and advances the read cursor before returning.

        ``zero_copy=True`` returns the payload as a view of ring memory
        (frames never split, so the view is a straight ``np.frombuffer``)
        and does **not** advance the cursor past the frame: the view is
        valid until the caller passes the frame to :meth:`advance`, which
        releases its bytes back to the producer.  Either mode releases the
        PAD frames before it at once.
        """
        buf = self._shm.buf
        head = self._head()
        while True:
            if head >= self._tail():
                return None
            pos = head % self.capacity
            (magic, kind, seq, n_rows, n_cols, payload_bytes, extra_bytes,
             trace_id) = struct.unpack_from(_HEADER_FMT, buf, _CTRL_BYTES + pos)
            if magic != _MAGIC:
                raise ServingError(f"shm ring corrupted: bad frame magic {magic:#x}")
            if kind != FRAME_PAD:
                break
            head += self.capacity - pos
            self._set_head(head)
        offset = _CTRL_BYTES + pos + _HEADER_BYTES
        payload: Optional[np.ndarray] = None
        if payload_bytes:
            view = np.frombuffer(buf, dtype=np.float64, count=payload_bytes // 8,
                                 offset=offset).reshape(n_rows, n_cols)
            payload = view if zero_copy else view.copy()
            offset += payload_bytes
        extra = bytes(buf[offset: offset + extra_bytes])
        span = _span(payload_bytes, extra_bytes)
        if not zero_copy:
            # Release the frame's bytes only after they are fully copied out.
            self._set_head(head + span)
        return ShmFrame(kind=kind, seq=seq, payload=payload, extra=extra,
                        trace_id=trace_id, span=span)

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
