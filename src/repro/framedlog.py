"""Crash-safe, size-capped, append-only log of wire frames.

The flight recorder (:mod:`repro.observability.flightlog`) and the
request journal (:mod:`repro.serving.journal`) share one on-disk
discipline; this module is its single implementation:

* every record is one frame of the wire codec
  (:mod:`repro.serving.net.protocol`: length prefix + header + body +
  CRC32), so a torn tail from a crash (SIGKILL mid-write) or a
  concurrent reader is *detected* — the length/CRC check fails and
  reading stops at the last intact record instead of yielding garbage;
* every append is flushed before it returns;
* size capping is rotate-once: when the live file would exceed
  ``max_bytes`` it is renamed to ``<path>.1`` (clobbering the previous
  rotation) and a fresh generation starts, bounding disk use at roughly
  ``2 * max_bytes`` without ever rewriting records in place.
"""

from __future__ import annotations

import os
import struct
import threading
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError, ProtocolError

__all__ = ["FramedLog", "generations", "iter_frames"]

#: Smallest accepted size cap (one generation must hold real records).
MIN_MAX_BYTES = 4096


def _wire():
    """The wire-protocol module, imported on first use.

    A module-level import would close a cycle: the flight recorder is
    re-exported by ``repro.observability`` (which ``repro.core.runtime``
    imports), while ``repro.serving`` needs the core.  By the time a log
    actually encodes or decodes a frame, every package involved is fully
    initialised.
    """
    from repro.serving.net import protocol

    return protocol


class FramedLog:
    """Thread-safe appender of one frame type to a rotate-once file.

    ``frame_type`` names a ``protocol.FT_*`` constant.  ``cap_name`` is
    how the size cap is called in the floor-violation message.  A
    subclass overrides :meth:`generation_head` to have every rotated
    generation open with a record of its choosing — the journal's META.
    """

    def __init__(
        self, path: str, frame_type: str, max_bytes: int, cap_name: str
    ):
        if max_bytes < MIN_MAX_BYTES:
            raise ConfigurationError(
                f"{cap_name} must be at least {MIN_MAX_BYTES}"
            )
        self.path = str(path)
        self.max_bytes = int(max_bytes)
        self._frame_type = frame_type
        self._lock = threading.Lock()
        self._fh = open(self.path, "ab")
        self._size = self._fh.tell()
        self.written = 0
        self.rotations = 0
        self._closed = False

    @property
    def rotated_path(self) -> str:
        return self.path + ".1"

    def generation_head(self) -> Optional[bytes]:
        """Body of the record that opens each rotated generation, if any."""
        return None

    def append(self, request_id: int, body: bytes) -> None:
        """Append one record; silently drops after :meth:`close`."""
        wire = _wire()
        frame_type = getattr(wire, self._frame_type)
        blob = wire.encode_frame(frame_type, request_id, body)
        with self._lock:
            if self._closed:
                return
            if self._size and self._size + len(blob) > self.max_bytes:
                self._fh.close()
                os.replace(self.path, self.rotated_path)
                self._fh = open(self.path, "ab")
                self._size = 0
                self.rotations += 1
                head = self.generation_head()
                if head is not None:
                    self._write_locked(wire.encode_frame(frame_type, 0, head))
            self._write_locked(blob)

    def _write_locked(self, blob: bytes) -> None:
        self._fh.write(blob)
        self._fh.flush()
        self._size += len(blob)
        self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def generations(path: str, include_rotated: bool = True) -> List[str]:
    """A log's files oldest-first: the rotated generation, then the live one."""
    return [path + ".1", path] if include_rotated else [path]


def iter_frames(path: str, frame_type: str) -> Iterator[object]:
    """Yield one file's intact frames of ``frame_type``, oldest first.

    A missing file reads as empty; a torn or corrupted tail ends the
    iteration — everything before it was intact.
    """
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except FileNotFoundError:
        return
    wire = _wire()
    wanted = getattr(wire, frame_type)
    offset = 0
    while offset + 4 <= len(buf):
        (length,) = struct.unpack_from("<I", buf, offset)
        if length < wire.MIN_FRAME_LENGTH or offset + 4 + length > len(buf):
            return  # torn tail: a record was cut mid-write
        try:
            frame = wire.decode_frame(buf[offset + 4: offset + 4 + length])
        except ProtocolError:
            return  # corrupted tail
        offset += 4 + length
        if frame.frame_type == wanted:
            yield frame
