"""Append-only durable request journal for the serving layer.

Every terminal request completion — success or typed failure, thread or
process backend — appends one record carrying everything deterministic
replay needs: the request's input rows, the batch it rode in (sequence
number, total rows, row offset), the merged output rows, the per-element
decision bits the checker set, the recovery outcome (fix fraction), and
the completion status.  ``python -m repro replay`` re-drives a journal
through a fresh server and diffs the two runs bit for bit (see
:mod:`repro.serving.replay` and ``docs/replay.md``).

On disk the journal is a rotate-once :class:`~repro.framedlog.FramedLog`
of ``FT_JOURNAL`` frames, exactly like the flight recorder: a torn tail
from a crash (SIGKILL mid-write) is *detected* and reading stops at the
last intact record, and each rotated generation opens with a fresh META
record.

Record kinds (first body byte):

``META``
    A JSON document describing the run: app, scheme, backend, seed,
    worker count, the nominal detection threshold, and the flattened
    server config.  Written when the server starts and again at the head
    of every rotated generation.
``REQUEST``
    One terminal completion: a JSON header (ids, batch coordinates and
    backpressure level, status, quality metrics) followed by the raw
    float64 input block, the raw float64 output block, and the packed
    decision bits.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.framedlog import FramedLog, generations, iter_frames

__all__ = [
    "JOURNAL_VERSION",
    "KIND_META",
    "KIND_REQUEST",
    "JournalRecord",
    "Journal",
    "RequestJournal",
    "pack_bits",
    "unpack_bits",
    "iter_journal",
    "read_journal",
]

#: Bump when the record schema changes shape incompatibly.
JOURNAL_VERSION = 1

KIND_META = 0
KIND_REQUEST = 1


# --------------------------------------------------------------------- #
# Decision-bit packing                                                   #
# --------------------------------------------------------------------- #
def pack_bits(bits: Optional[np.ndarray]) -> Tuple[bytes, int]:
    """Pack a boolean decision vector into bytes; ``(b"", 0)`` for None."""
    if bits is None:
        return b"", 0
    arr = np.asarray(bits).astype(bool).ravel()
    return np.packbits(arr).tobytes(), int(arr.shape[0])


def unpack_bits(blob: bytes, n_bits: int) -> Optional[np.ndarray]:
    """Inverse of :func:`pack_bits`; None when no bits were recorded."""
    if n_bits == 0:
        return None
    raw = np.frombuffer(blob, dtype=np.uint8)
    return np.unpackbits(raw, count=n_bits).astype(bool)


# --------------------------------------------------------------------- #
# Record bodies                                                          #
# --------------------------------------------------------------------- #
def _matrix_blob(matrix: Optional[np.ndarray]) -> bytes:
    if matrix is None:
        return struct.pack("<II", 0, 0)
    arr = np.ascontiguousarray(np.atleast_2d(matrix), dtype=np.float64)
    return struct.pack("<II", arr.shape[0], arr.shape[1]) + arr.tobytes(
        order="C"
    )


def _read_matrix(body: bytes, offset: int) -> Tuple[Optional[np.ndarray], int]:
    if len(body) < offset + 8:
        raise ProtocolError("journal body truncated before matrix header")
    n_rows, n_cols = struct.unpack_from("<II", body, offset)
    offset += 8
    if n_rows == 0 and n_cols == 0:
        return None, offset
    n_bytes = n_rows * n_cols * 8
    if len(body) < offset + n_bytes:
        raise ProtocolError(
            f"journal body truncated: matrix claims {n_rows}x{n_cols} "
            f"but only {len(body) - offset} bytes remain"
        )
    data = np.frombuffer(
        body, dtype=np.float64, count=n_rows * n_cols, offset=offset
    ).reshape(n_rows, n_cols).copy()
    return data, offset + n_bytes


def _json_blob(document: Dict[str, object]) -> bytes:
    payload = json.dumps(
        document, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return struct.pack("<I", len(payload)) + payload


def _read_json(body: bytes, offset: int) -> Tuple[Dict[str, object], int]:
    if len(body) < offset + 4:
        raise ProtocolError("journal body truncated before JSON length")
    (n,) = struct.unpack_from("<I", body, offset)
    offset += 4
    if len(body) < offset + n:
        raise ProtocolError("journal body truncated inside JSON document")
    try:
        document = json.loads(body[offset: offset + n].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable journal JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ProtocolError("journal JSON body must be an object")
    return document, offset + n


@dataclass
class JournalRecord:
    """One terminal request completion, as recorded on disk.

    ``header`` is the JSON document (ids, batch coordinates, status,
    quality metrics); the arrays are the raw blocks that rode with it.
    ``bits`` is None for records that carried no decision bits (failed
    requests complete without an invocation).
    """

    header: Dict[str, object]
    inputs: Optional[np.ndarray] = None
    outputs: Optional[np.ndarray] = None
    bits: Optional[np.ndarray] = None

    @property
    def request_id(self) -> int:
        return int(self.header.get("request_id", 0))

    @property
    def status(self) -> str:
        return str(self.header.get("status", "ok"))

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def batch(self) -> int:
        return int(self.header.get("batch", -1))

    @property
    def row_offset(self) -> int:
        return int(self.header.get("row_offset", 0))

    @property
    def batch_rows(self) -> int:
        return int(self.header.get("batch_rows", 0))

    @property
    def fix_fraction(self) -> float:
        return float(self.header.get("fix_fraction", 0.0))


@dataclass
class Journal:
    """A fully parsed journal: the latest META + every REQUEST record."""

    meta: Optional[Dict[str, object]] = None
    records: List[JournalRecord] = field(default_factory=list)

    def ok_records(self) -> List[JournalRecord]:
        return [r for r in self.records if r.ok]

    def batches(self) -> "Dict[int, List[JournalRecord]]":
        """Successful records grouped by batch seq, in row-offset order.

        Records with no batch coordinates (``batch < 0``) are skipped —
        they cannot be replayed as an invocation.
        """
        grouped: Dict[int, List[JournalRecord]] = {}
        for record in self.ok_records():
            if record.batch < 0:
                continue
            grouped.setdefault(record.batch, []).append(record)
        for members in grouped.values():
            members.sort(key=lambda r: r.row_offset)
        return grouped


def pack_record(
    kind: int,
    header: Dict[str, object],
    inputs: Optional[np.ndarray] = None,
    outputs: Optional[np.ndarray] = None,
    bits: Optional[np.ndarray] = None,
) -> bytes:
    """Serialize one journal record body (without the frame envelope)."""
    if kind == KIND_META:
        return struct.pack("<B", KIND_META) + _json_blob(header)
    if kind != KIND_REQUEST:
        raise ConfigurationError(f"unknown journal record kind {kind}")
    packed, n_bits = pack_bits(bits)
    return (
        struct.pack("<B", KIND_REQUEST)
        + _json_blob(header)
        + _matrix_blob(inputs)
        + _matrix_blob(outputs)
        + struct.pack("<I", n_bits) + packed
    )


def unpack_record(body: bytes) -> Tuple[int, object]:
    """Decode one journal record body into ``(kind, payload)``.

    ``payload`` is the META dict or a :class:`JournalRecord`.
    """
    if len(body) < 1:
        raise ProtocolError("empty journal record body")
    (kind,) = struct.unpack_from("<B", body, 0)
    offset = 1
    if kind == KIND_META:
        document, _ = _read_json(body, offset)
        return KIND_META, document
    if kind != KIND_REQUEST:
        raise ProtocolError(f"unknown journal record kind {kind}")
    header, offset = _read_json(body, offset)
    inputs, offset = _read_matrix(body, offset)
    outputs, offset = _read_matrix(body, offset)
    if len(body) < offset + 4:
        raise ProtocolError("journal body truncated before decision bits")
    (n_bits,) = struct.unpack_from("<I", body, offset)
    offset += 4
    n_bytes = (n_bits + 7) // 8
    if len(body) < offset + n_bytes:
        raise ProtocolError("journal body truncated inside decision bits")
    bits = unpack_bits(body[offset: offset + n_bytes], n_bits)
    return KIND_REQUEST, JournalRecord(
        header=header, inputs=inputs, outputs=outputs, bits=bits
    )


# --------------------------------------------------------------------- #
# Writer                                                                 #
# --------------------------------------------------------------------- #
class RequestJournal(FramedLog):
    """Crash-safe appender of journal records.

    Thread-safe; every record is flushed before the append returns, so
    the journal is complete up to the last finished request even if the
    process dies immediately after (the chaos replay tests SIGKILL a
    worker mid-run and rely on exactly this).
    """

    def __init__(self, path: str, max_bytes: int = 64 << 20):
        super().__init__(path, "FT_JOURNAL", max_bytes, "journal max_bytes")
        self._meta: Optional[Dict[str, object]] = None

    def write_meta(self, document: Dict[str, object]) -> None:
        """Record the run description; re-emitted after every rotation."""
        document = dict(document)
        document.setdefault("journal_version", JOURNAL_VERSION)
        self._meta = document
        self.append(0, pack_record(KIND_META, document))

    def generation_head(self) -> Optional[bytes]:
        # Each generation is self-describing: a reader that only has the
        # live file still knows what run it is looking at.
        if self._meta is None:
            return None
        return pack_record(KIND_META, self._meta)

    def record_request(
        self,
        header: Dict[str, object],
        inputs: Optional[np.ndarray] = None,
        outputs: Optional[np.ndarray] = None,
        bits: Optional[np.ndarray] = None,
    ) -> None:
        """Append one terminal completion; silently drops after close."""
        body = pack_record(
            KIND_REQUEST, header, inputs=inputs, outputs=outputs, bits=bits
        )
        self.append(int(header.get("request_id", 0) or 0), body)


# --------------------------------------------------------------------- #
# Read side                                                              #
# --------------------------------------------------------------------- #
def iter_journal(
    path: str, include_rotated: bool = True
) -> Iterator[Tuple[int, object]]:
    """Yield ``(kind, payload)`` oldest-first, rotated generation first."""
    for generation in generations(path, include_rotated):
        for frame in iter_frames(generation, "FT_JOURNAL"):
            try:
                yield unpack_record(frame.body)
            except ProtocolError:
                break  # body itself torn: keep this file's intact prefix


def read_journal(path: str, include_rotated: bool = True) -> Journal:
    """Parse a journal file (+ its rotation) into a :class:`Journal`."""
    journal = Journal()
    for kind, payload in iter_journal(path, include_rotated=include_rotated):
        if kind == KIND_META:
            journal.meta = payload
        else:
            journal.records.append(payload)
    return journal
