"""Unit tests for the shared-memory ring transport (frame round trips,
wraparound, capacity behaviour, and the ring against a deque model)."""

import multiprocessing as mp
import os
import struct
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ServingError
from repro.serving.shm import (
    FRAME_BATCH,
    FRAME_PAD,
    FRAME_RESULT,
    FRAME_STOP,
    ShmRing,
    _span,
)
from tests.serving.frame_faults import corrupt_next_frame


def used_bytes(ring):
    """Bytes written and not yet released (PADs included)."""
    return ring._tail() - ring._head()


def frame_bytes(payload=None, extra=b""):
    """Total ring bytes one frame with this content occupies."""
    return _span(0 if payload is None else payload.size * 8, len(extra))


@pytest.fixture()
def ring():
    ring = ShmRing(capacity_bytes=1 << 12)
    yield ring
    ring.close()
    ring.unlink()


class TestFraming:
    def test_round_trip_payload_and_extra(self, ring):
        payload = np.arange(30, dtype=float).reshape(5, 6) * 0.5
        assert ring.try_write(FRAME_BATCH, seq=42, payload=payload,
                              extra=b"metadata")
        frame = ring.try_read()
        assert frame.kind == FRAME_BATCH
        assert frame.seq == 42
        assert frame.extra == b"metadata"
        assert frame.payload.shape == (5, 6)
        assert frame.payload.dtype == np.float64
        np.testing.assert_array_equal(frame.payload, payload)

    def test_empty_ring_reads_none(self, ring):
        assert ring.try_read() is None

    def test_control_frame_without_payload(self, ring):
        assert ring.try_write(FRAME_STOP)
        frame = ring.try_read()
        assert frame.kind == FRAME_STOP
        assert frame.payload is None
        assert frame.extra == b""

    def test_fifo_order_preserved(self, ring):
        for seq in range(5):
            assert ring.try_write(FRAME_RESULT, seq=seq,
                                  payload=np.full((1, 2), float(seq)))
        seqs = [ring.try_read().seq for _ in range(5)]
        assert seqs == [0, 1, 2, 3, 4]
        assert ring.try_read() is None

    def test_payload_must_be_2d(self, ring):
        with pytest.raises(ConfigurationError, match="2-D"):
            ring.try_write(FRAME_BATCH, payload=np.arange(4.0))

    def test_unaligned_extra_is_padded_not_corrupted(self, ring):
        # 3-byte extra forces padding; the next frame must still decode.
        assert ring.try_write(FRAME_RESULT, seq=1, extra=b"abc")
        assert ring.try_write(FRAME_RESULT, seq=2, extra=b"defgh")
        assert ring.try_read().extra == b"abc"
        assert ring.try_read().extra == b"defgh"


class TestCapacity:
    def test_full_ring_rejects_then_accepts_after_drain(self, ring):
        payload = np.zeros((16, 8))  # 1 KiB + header per frame
        written = 0
        while ring.try_write(FRAME_BATCH, seq=written, payload=payload):
            written += 1
        assert written >= 2  # the 4 KiB ring holds a few frames
        assert not ring.try_write(FRAME_BATCH, seq=99, payload=payload)
        assert ring.try_read().seq == 0
        assert ring.try_write(FRAME_BATCH, seq=99, payload=payload)

    def test_oversized_frame_raises_instead_of_spinning(self, ring):
        with pytest.raises(ServingError, match="cannot ever fit"):
            ring.try_write(FRAME_BATCH, payload=np.zeros((1024, 8)))

    def test_wraparound_preserves_content(self, ring):
        # Drive enough traffic through a small ring that its counters
        # lap it many times over.
        rng = np.random.default_rng(0)
        for seq in range(200):
            payload = rng.normal(size=(7, 3))
            assert ring.try_write(FRAME_BATCH, seq=seq, payload=payload,
                                  extra=bytes([seq % 251]))
            frame = ring.try_read()
            assert frame.seq == seq
            np.testing.assert_array_equal(frame.payload, payload)
            assert frame.extra == bytes([seq % 251])
        assert used_bytes(ring) == 0

    def test_interleaved_write_read_tracks_usage(self, ring):
        payload = np.ones((4, 4))
        per_frame = frame_bytes(payload=payload)
        ring.try_write(FRAME_BATCH, payload=payload)
        ring.try_write(FRAME_BATCH, payload=payload)
        assert used_bytes(ring) == 2 * per_frame
        ring.try_read()
        assert used_bytes(ring) == per_frame


class TestZeroCopyRead:
    def test_view_matches_and_advance_releases(self, ring):
        payload = np.arange(24.0).reshape(4, 6)
        assert ring.try_write(FRAME_BATCH, seq=9, payload=payload)
        used = used_bytes(ring)
        frame = ring.try_read(zero_copy=True)
        np.testing.assert_array_equal(frame.payload, payload)
        # The cursor has NOT advanced yet: the view pins its ring bytes.
        assert used_bytes(ring) == used
        assert frame.span == used
        ring.advance(frame)
        assert used_bytes(ring) == 0

    def test_view_aliases_ring_memory_until_advance(self, ring):
        assert ring.try_write(FRAME_BATCH, seq=0, payload=np.zeros((2, 2)))
        frame = ring.try_read(zero_copy=True)
        # A second producer write after advance may reuse these bytes;
        # until then the view reflects ring memory (write-through proves
        # aliasing rather than a hidden copy).
        addr = frame.payload.__array_interface__["data"][0]
        buf_addr = np.frombuffer(
            ring._shm.buf, dtype=np.uint8
        ).__array_interface__["data"][0]
        assert buf_addr <= addr < buf_addr + ring._shm.size
        ring.advance(frame)

    def test_edge_frame_lands_at_start_behind_a_pad(self, ring):
        # A frame that would straddle the end of the data region is not
        # split: it lands at offset 0, behind a PAD filling the lap.
        assert ring.try_write(FRAME_BATCH, seq=0, payload=np.ones((40, 8)))
        assert ring.try_write(FRAME_BATCH, seq=1, payload=np.ones((8, 8)))
        ring.try_read()
        # 1,344 bytes against the 896 left before the end of the ring.
        payload = np.arange(160.0).reshape(20, 8)
        assert ring.try_write(FRAME_BATCH, seq=2, payload=payload)
        assert ring.try_read().seq == 1
        frame = ring.try_read(zero_copy=True)  # skips the PAD
        assert frame.seq == 2
        np.testing.assert_array_equal(frame.payload, payload)
        # A view of ring memory at offset 0, right after its header.
        addr = frame.payload.__array_interface__["data"][0]
        buf_addr = np.frombuffer(
            ring._shm.buf, dtype=np.uint8
        ).__array_interface__["data"][0]
        assert addr == buf_addr + 16 + 64
        # Until advance the producer writes around it ...
        assert ring.try_write(FRAME_BATCH, seq=3,
                              payload=np.full((20, 8), 7.0))
        np.testing.assert_array_equal(frame.payload, payload)
        # ... and once released, over it.
        ring.advance(frame)
        assert ring.try_read().seq == 3
        assert ring.try_write(FRAME_BATCH, seq=4,
                              payload=np.full((20, 8), 9.0))
        assert (frame.payload == 9.0).all()
        del frame  # a live view would keep the fixture's close from unmapping

    def test_zero_copy_stream_equivalence(self, ring):
        # A long interleaved stream read zero-copy (with advance) must
        # decode byte-identically to the copying reader.
        rng = np.random.default_rng(3)
        for seq in range(100):
            payload = rng.normal(size=(9, 4))
            assert ring.try_write(FRAME_BATCH, seq=seq, payload=payload,
                                  extra=bytes([seq % 7]))
            frame = ring.try_read(zero_copy=True)
            assert frame.seq == seq
            assert frame.extra == bytes([seq % 7])
            np.testing.assert_array_equal(frame.payload, payload)
            ring.advance(frame)
        assert used_bytes(ring) == 0


class TestWriteRows:
    def test_blocks_decode_as_one_concatenated_payload(self, ring):
        blocks = [
            np.arange(8.0).reshape(2, 4),
            np.arange(8.0, 12.0).reshape(1, 4),
            np.arange(12.0, 24.0).reshape(3, 4),
        ]
        assert ring.write_rows(FRAME_BATCH, seq=5, blocks=blocks,
                               extra=b"meta", trace_id=77)
        frame = ring.try_read()
        assert frame.seq == 5
        assert frame.trace_id == 77
        assert frame.extra == b"meta"
        np.testing.assert_array_equal(
            frame.payload, np.concatenate(blocks, axis=0)
        )

    def test_single_block_matches_try_write(self, ring):
        payload = np.random.default_rng(1).normal(size=(6, 3))
        assert ring.try_write(FRAME_BATCH, seq=1, payload=payload)
        via_write = ring.try_read()
        assert ring.write_rows(FRAME_BATCH, seq=1, blocks=[payload])
        via_rows = ring.try_read()
        np.testing.assert_array_equal(via_rows.payload, via_write.payload)
        assert via_rows.span == via_write.span

    def test_mismatched_columns_raise(self, ring):
        with pytest.raises(ConfigurationError, match="column count"):
            ring.write_rows(
                FRAME_BATCH, seq=0,
                blocks=[np.zeros((2, 3)), np.zeros((2, 4))],
            )

    def test_empty_blocks_raise(self, ring):
        with pytest.raises(ConfigurationError, match="at least one block"):
            ring.write_rows(FRAME_BATCH, seq=0, blocks=[])

    def test_full_ring_returns_false(self, ring):
        blocks = [np.zeros((16, 8))]
        while ring.write_rows(FRAME_BATCH, seq=0, blocks=blocks):
            pass
        assert not ring.write_rows(FRAME_BATCH, seq=1, blocks=blocks)
        ring.try_read()
        assert ring.write_rows(FRAME_BATCH, seq=1, blocks=blocks)

    def test_wraparound_stream(self, ring):
        rng = np.random.default_rng(4)
        for seq in range(120):
            blocks = [rng.normal(size=(int(rng.integers(1, 5)), 6))
                      for _ in range(int(rng.integers(1, 4)))]
            assert ring.write_rows(FRAME_BATCH, seq=seq, blocks=blocks)
            frame = ring.try_read()
            np.testing.assert_array_equal(
                frame.payload, np.concatenate(blocks, axis=0)
            )
        assert used_bytes(ring) == 0


class TestAttach:
    def test_attached_ring_shares_frames(self):
        owner = ShmRing(capacity_bytes=1 << 12)
        try:
            other = ShmRing.attach(owner.name)
            payload = np.eye(3)
            assert owner.try_write(FRAME_BATCH, seq=5, payload=payload)
            frame = other.try_read()
            assert frame.seq == 5
            np.testing.assert_array_equal(frame.payload, payload)
            # Consumption is visible to the owner too.
            assert used_bytes(owner) == 0
            other.close()
        finally:
            owner.close()
            owner.unlink()

    def test_capacity_floor(self):
        with pytest.raises(ConfigurationError):
            ShmRing(capacity_bytes=16)

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="needs a POSIX shm filesystem to observe")
    def test_child_attach_does_not_destroy_owner_segment(self):
        # On Python < 3.13 a plain attach registers the segment with the
        # child's resource tracker, which unlinks it when the child exits
        # — yanking the shared memory out from under the owner.  The
        # attach path must keep the tracker out of it (``track=False`` on
        # 3.13+, register-suppression before).
        owner = ShmRing(capacity_bytes=1 << 12)
        path = f"/dev/shm/{owner.name.lstrip('/')}"
        assert os.path.exists(path)
        try:
            ctx = mp.get_context("spawn")
            child = ctx.Process(target=_attach_read_and_exit,
                                args=(owner.name,))
            owner.try_write(FRAME_BATCH, seq=7, payload=np.eye(2))
            child.start()
            child.join(timeout=60)
            assert child.exitcode == 0
            # Give the child's resource tracker time to do damage if the
            # attach had (wrongly) registered the segment.
            time.sleep(1.0)
            assert os.path.exists(path)
            # The owner's end still works after the child detached.
            assert owner.try_write(FRAME_BATCH, seq=8, payload=np.eye(2))
        finally:
            owner.close()
            owner.unlink()
        assert not os.path.exists(path)


def _attach_read_and_exit(name):
    """Child-process body for the resource-tracker test."""
    ring = ShmRing.attach(name)
    frame = ring.try_read()
    assert frame is not None and frame.seq == 7
    ring.close()


def _next_kind(ring):
    """Kind of the header at the ring's read position."""
    return struct.unpack_from("<q", ring._shm.buf,
                              16 + ring._head() % ring.capacity + 8)[0]


def _check(frame, expected):
    seq, payload, extra, trace_id = expected
    assert (frame.kind, frame.seq) == (FRAME_BATCH, seq)
    assert frame.extra == extra
    assert frame.trace_id == trace_id
    if payload.size:
        assert frame.payload.shape == payload.shape
        assert frame.payload.tobytes() == payload.tobytes()
    else:
        assert frame.payload is None


#: One step: ("write", payload bytes, columns, extra, trace id, as blocks),
#: ("read",), ("view",) — a zero-copy read — or ("advance",).
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 4200), st.integers(1, 4),
                  st.binary(max_size=20), st.integers(0, (1 << 64) - 1),
                  st.booleans()),
        st.tuples(st.just("read")),
        st.tuples(st.just("view")),
        st.tuples(st.just("advance")),
    ),
    max_size=60,
)


def _drive(ring, steps):
    model = deque()  # (seq, payload, extra, trace_id) written, not read
    held = None      # (frame, expected, span) read zero-copy, not advanced
    spans = {}       # seq -> span, for the bytes in flight

    def write(seq, payload, extra, trace_id, as_blocks):
        if as_blocks:
            cut = len(payload) // 2
            blocks = [payload[:cut], payload[cut:]] if cut else [payload]
            return ring.write_rows(FRAME_BATCH, seq, blocks, extra=extra,
                                   trace_id=trace_id)
        return ring.try_write(FRAME_BATCH, seq, payload=payload, extra=extra,
                              trace_id=trace_id)

    for seq, step in enumerate(steps):
        if step[0] == "write":
            _, nbytes, cols, extra, trace_id, as_blocks = step
            rows = nbytes // (8 * cols)
            payload = np.arange(rows * cols, dtype=float).reshape(rows, cols)
            payload += seq * 1e6
            args = (seq, payload, extra, trace_id, as_blocks)
            span = frame_bytes(payload, extra)
            if span > ring.capacity:
                with pytest.raises(ServingError, match="cannot ever fit"):
                    write(*args)
                continue
            kept_up = not model and held is None
            if not write(*args):
                # Refused: the reader releases everything, skipping PADs.
                if held is not None:
                    _check(held[0], held[1])
                    ring.advance(held[0])
                    held = None
                while model:
                    _check(ring.try_read(), model.popleft())
                assert ring.try_read() is None
                assert used_bytes(ring) == 0
                if not write(*args):
                    # An empty ring refuses only a frame over half of it
                    # that fits neither before the end nor before the
                    # reader, and only until the reader skips its PAD.
                    assert span > ring.capacity // 2
                    assert ring.try_read() is None
                    assert write(*args)
            start = (ring._tail() - span) % ring.capacity
            assert start + span <= ring.capacity  # never split
            model.append((seq, payload, extra, trace_id))
            spans[seq] = span
            in_flight = sum(spans[e[0]] for e in model)
            if held is not None:
                in_flight += held[2]
            if kept_up:
                # No write lands beyond the bytes in flight plus one frame.
                assert start + span <= in_flight + span
        elif step[0] == "read" and held is None:
            frame = ring.try_read()
            if model:
                _check(frame, model.popleft())
            else:
                assert frame is None
        elif step[0] == "view" and held is None:
            frame = ring.try_read(zero_copy=True)
            if not model:
                assert frame is None
                continue
            expected = model.popleft()
            _check(frame, expected)
            if frame.payload is not None:
                assert not frame.payload.flags.owndata  # a view, no copy
            held = (frame, expected, spans[expected[0]])
        elif step[0] == "advance" and held is not None:
            # Byte-identical still: nothing was written over it meanwhile.
            _check(held[0], held[1])
            ring.advance(held[0])
            held = None
    if used_bytes(ring):
        # A flipped header byte, a PAD's or a frame's, is caught on read.
        held = None
        assert corrupt_next_frame(ring)
        with pytest.raises(ServingError, match="bad frame magic"):
            ring.try_read()


class TestRingModel:
    """ShmRing against a deque: random frame sizes, frames over half the
    ring, interleaved writes, zero-copy reads with deferred advance."""

    @settings(max_examples=300, deadline=None)
    @given(capacity=st.sampled_from([1 << 12, 4000]), steps=_STEPS)
    def test_the_ring_is_a_fifo_of_whole_frames(self, capacity, steps):
        ring = ShmRing(capacity_bytes=capacity)
        try:
            _drive(ring, steps)
        finally:
            ring.close()
            ring.unlink()

    @pytest.mark.parametrize("skip", [False, True])
    def test_a_corrupted_pad_or_frame_header_raises(self, ring, skip):
        assert ring.try_write(FRAME_BATCH, seq=0, payload=np.ones((40, 8)))
        ring.try_read()
        # Goes to offset 0 behind a PAD over the rest of the lap.
        assert ring.try_write(FRAME_BATCH, seq=1, payload=np.ones((20, 8)))
        assert _next_kind(ring) == FRAME_PAD
        if skip:
            assert ring.try_read(zero_copy=True).seq == 1
            assert _next_kind(ring) == FRAME_BATCH
        assert corrupt_next_frame(ring)
        with pytest.raises(ServingError, match="bad frame magic"):
            ring.try_read()

    def test_a_frame_over_half_the_ring_waits_behind_its_pad(self, ring):
        # The ring is empty but its read position is mid-ring: the frame
        # fits neither before the end nor before the reader.  The writer
        # publishes a PAD and is refused; once the reader has skipped it,
        # the frame lands at offset 0.
        assert ring.try_write(FRAME_BATCH, seq=0, payload=np.ones((32, 8)))
        ring.try_read()
        big = np.arange(336.0).reshape(42, 8)  # 2,752 of 4,096 bytes
        assert not ring.try_write(FRAME_BATCH, seq=1, payload=big)
        assert _next_kind(ring) == FRAME_PAD
        assert ring.try_read() is None
        assert ring.try_write(FRAME_BATCH, seq=1, payload=big)
        frame = ring.try_read()
        np.testing.assert_array_equal(frame.payload, big)

    def test_a_reader_crossing_the_end_mid_reserve_splits_no_frame(
            self, ring, monkeypatch):
        # In flight: C at [2048, 3072), a PAD to the end, D at [0, 1024);
        # released: [1024, 2048).  The reader's position is past the
        # writer's.
        frames = [np.full((15, 8), float(seq)) for seq in range(4)]
        for seq in range(3):
            assert ring.try_write(FRAME_BATCH, seq=seq, payload=frames[seq])
        ring.try_read(), ring.try_read()
        assert ring.try_write(FRAME_BATCH, seq=3, payload=frames[3])
        assert (ring._head(), ring._tail()) == (2048, 5120)
        # While the writer reserves, the reader drains C, the PAD and D:
        # the head crosses the end.  The bytes it frees at [0, 1024) do
        # not join the writer's [1024, 2048), so a frame too long for the
        # rest of the lap must not land at 1024.
        heads = iter([2048])
        monkeypatch.setattr(ring, "_head", lambda: next(heads, 5120))
        big = np.ones((48, 8))  # a 3,136-byte span
        if ring.try_write(FRAME_BATCH, seq=4, payload=big):
            start = (ring._tail() - frame_bytes(big)) % ring.capacity
            assert start + frame_bytes(big) <= ring.capacity
        monkeypatch.undo()
        for seq in (2, 3):
            np.testing.assert_array_equal(ring.try_read().payload, frames[seq])
