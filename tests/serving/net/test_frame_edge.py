"""The shared TCP edge: FrameBuffer, FrameWriter, the completion inbox.

All three are free of sockets, so the tests drive them with byte
strings, a counting fake transport and a real (but otherwise idle)
event loop — no sleeps anywhere: ordering is asserted with
``loop.call_soon`` itself.
"""

from __future__ import annotations

import asyncio
import random
import socket
import struct
import sys
import threading
import zlib

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.observability.metrics import MetricsRegistry
from repro.serving import NetServer, RumbaClient, RumbaServer, ServerConfig
from repro.serving.net import protocol as wire
from repro.serving.net.server import _CompletionInbox


# --------------------------------------------------------------------- #
# FrameBuffer                                                           #
# --------------------------------------------------------------------- #
def _reference_parse(stream: bytes, max_frame_bytes: int):
    """The blocking readers this replaced: prefix, length check, body."""
    frames, offset = [], 0
    try:
        while len(stream) - offset >= 4:
            (length,) = struct.unpack_from("<I", stream, offset)
            wire.check_frame_length(length, max_frame_bytes)
            if len(stream) - offset - 4 < length:
                break
            frames.append(wire.decode_frame(stream[offset + 4: offset + 4 + length]))
            offset += 4 + length
    except ProtocolError as exc:
        return frames, str(exc)
    return frames, None


def _buffer_parse(chunks, max_frame_bytes: int):
    buffer = wire.FrameBuffer(max_frame_bytes)
    frames = []
    try:
        for chunk in chunks:
            for frame in buffer.feed(chunk):
                frames.append(frame)
    except ProtocolError as exc:
        return frames, str(exc)
    return frames, None


def _refreshed(blob: bytearray) -> bytes:
    """Recompute the CRC so the header mutation is what fails."""
    crc = zlib.crc32(bytes(blob[4:-4])) & 0xFFFFFFFF
    struct.pack_into("<I", blob, len(blob) - 4, crc)
    return bytes(blob)


def _corpus():
    """The ``test_protocol.py`` fuzz mutations, each behind good frames."""
    request = wire.encode_frame(
        wire.FT_REQUEST, 7,
        wire.pack_request(np.ones((4, 2)), deadline_s=1.0, scheme="t"),
    )
    result = wire.encode_frame(
        wire.FT_RESULT, 8,
        wire.pack_result(np.ones((2, 2)), "w0", 0.0, 0.0, 0.0, False),
    )
    stats = wire.encode_frame(wire.FT_STATS, 9)
    good = request + result + stats

    def mutated(offset, fmt, value):
        blob = bytearray(stats)
        struct.pack_into(fmt, blob, offset, value)
        return _refreshed(blob)

    corrupt = bytearray(request)
    corrupt[-1] ^= 0xFF
    cases = {
        "clean": good,
        "empty": b"",
        "bad_magic": good + mutated(4, "<I", 0xDEADBEEF) + stats,
        "wrong_version": good + mutated(8, "<H", 99) + stats,
        "version_1": good + mutated(8, "<H", 1) + stats,
        "unknown_type": good + mutated(10, "<H", 250) + stats,
        "corrupted_crc": good + bytes(corrupt) + stats,
        "oversized_prefix": good + struct.pack("<I", 1 << 31) + stats,
        "undersized_prefix": good + struct.pack("<I", 3) + stats,
        "torn_prefix": good + b"\x00" * 3,
        "torn_frame": good + request[: len(request) // 2],
        "error_first": struct.pack("<I", 1) + good,
    }
    for bit in range(32, len(request) * 8, 397):  # sampled bit flips
        flipped = bytearray(request)
        flipped[bit // 8] ^= 1 << (bit % 8)
        cases[f"bit_flip_{bit}"] = stats + bytes(flipped) + stats
    return cases


_MAX = 4096
_CORPUS = _corpus()


class TestFrameBuffer:
    @pytest.mark.parametrize("name", sorted(_CORPUS))
    def test_any_split_yields_the_same_frames_and_error(self, name):
        stream = _CORPUS[name]
        expected = _reference_parse(stream, _MAX)
        assert _buffer_parse([stream], _MAX) == expected
        one_byte = [stream[i: i + 1] for i in range(len(stream))]
        assert _buffer_parse(one_byte, _MAX) == expected
        rng = random.Random(name)
        for _ in range(25):
            cuts = sorted(
                rng.randrange(len(stream) + 1)
                for _ in range(rng.randrange(1, 12))
            )
            chunks = [
                stream[a:b] for a, b in zip([0] + cuts, cuts + [len(stream)])
            ]
            assert _buffer_parse(chunks, _MAX) == expected

    def test_corpus_exercises_every_check(self):
        errors = {
            name: _reference_parse(stream, _MAX)[1]
            for name, stream in _CORPUS.items()
        }
        for name, needle in [
            ("bad_magic", "magic"), ("wrong_version", "version"),
            ("version_1", "version 1"),
            ("unknown_type", "frame type"), ("corrupted_crc", "CRC"),
            ("oversized_prefix", "exceeds"),
            ("undersized_prefix", "below minimum"),
        ]:
            assert needle in errors[name]
        assert errors["clean"] is None and errors["torn_frame"] is None

    def test_frames_before_a_bad_one_are_delivered_first(self):
        frames, error = _buffer_parse([_CORPUS["corrupted_crc"]], _MAX)
        assert [f.request_id for f in frames] == [7, 8, 9]
        assert "CRC" in error

    def test_oversized_prefix_is_rejected_before_its_body_arrives(self):
        buffer = wire.FrameBuffer(_MAX)
        with pytest.raises(ProtocolError, match="exceeds"):
            list(buffer.feed(struct.pack("<I", _MAX + 1)))

    def test_mid_frame_tells_torn_from_clean(self):
        blob = wire.encode_frame(wire.FT_STATS, 1)
        buffer = wire.FrameBuffer(_MAX)
        assert not buffer.mid_frame
        assert list(buffer.feed(blob[:3])) == []
        assert not buffer.mid_frame          # torn prefix: a clean close
        assert list(buffer.feed(blob[3:10])) == []
        assert buffer.mid_frame              # prefix read, body pending
        assert len(list(buffer.feed(blob[10:]))) == 1
        assert not buffer.mid_frame

    def test_unconsumed_frames_stay_buffered(self):
        blob = b"".join(wire.encode_frame(wire.FT_STATS, i) for i in range(3))
        buffer = wire.FrameBuffer(_MAX)
        first = next(buffer.feed(blob))      # a WELCOME read stops here
        assert first.request_id == 0
        assert [f.request_id for f in buffer.feed(b"")] == [1, 2]
        assert list(buffer.feed(b"")) == []


# --------------------------------------------------------------------- #
# FrameWriter                                                           #
# --------------------------------------------------------------------- #
class _CountingTransport:
    def __init__(self, fail=False):
        self.writes, self.closing, self.fail = [], False, fail

    def is_closing(self):
        return self.closing

    def write(self, data):
        if self.fail:
            raise BrokenPipeError("peer went away")
        self.writes.append(bytes(data))


def _on_loop(scenario):
    """Run ``scenario(loop)`` as one callback; return once it finished."""
    loop = asyncio.new_event_loop()
    try:
        done = loop.create_future()
        loop.call_soon(scenario, loop, done)
        return loop.run_until_complete(asyncio.wait_for(done, 10.0))
    finally:
        loop.close()


_FRAMES = [
    wire.encode_frame(wire.FT_RESULT, i, b"x" * (10 * i)) for i in range(1, 6)
]


class TestFrameWriter:
    def test_one_tick_is_one_write_with_identical_bytes(self):
        transport = _CountingTransport()
        sent = MetricsRegistry().counter("tx_bytes_total", "tx")

        def scenario(loop, done):
            writer = wire.FrameWriter(transport, loop, on_sent=sent.inc)
            for frame in _FRAMES:
                writer.write(frame)
            assert transport.writes == []        # still this tick
            loop.call_soon(done.set_result, None)

        _on_loop(scenario)
        assert transport.writes == [b"".join(_FRAMES)]
        # What N separate writes would have counted.
        assert sent.value == sum(len(frame) for frame in _FRAMES)

    def test_frames_are_never_held_past_their_tick(self):
        """The flush is an ordinary call_soon callback: anything
        scheduled after the write — even by the same callback — runs
        after the bytes left.  No timer, so nothing to wait out."""
        transport = _CountingTransport()
        seen = []

        def scenario(loop, done):
            writer = wire.FrameWriter(transport, loop)

            def tick(index):
                seen.append(list(transport.writes))
                if index == len(_FRAMES):
                    done.set_result(None)
                    return
                writer.write(_FRAMES[index])
                loop.call_soon(tick, index + 1)

            tick(0)

        _on_loop(scenario)
        # Entering tick k, frames 0..k-1 had each left in their own write.
        assert seen == [_FRAMES[:k] for k in range(len(_FRAMES) + 1)]

    def test_lone_frame_is_written_as_is(self):
        transport = _CountingTransport()

        def scenario(loop, done):
            wire.FrameWriter(transport, loop).write(_FRAMES[0])
            loop.call_soon(done.set_result, None)

        _on_loop(scenario)
        assert transport.writes == [_FRAMES[0]]

    def test_explicit_flush_sends_now_and_the_tick_flush_finds_nothing(self):
        transport = _CountingTransport()

        def scenario(loop, done):
            writer = wire.FrameWriter(transport, loop)
            writer.write(_FRAMES[0])
            writer.flush()                       # what a closing edge does
            assert transport.writes == [_FRAMES[0]]
            loop.call_soon(done.set_result, None)

        _on_loop(scenario)
        assert transport.writes == [_FRAMES[0]]

    @pytest.mark.parametrize("how", ["raises", "closing"])
    def test_failed_flush_reports_once_and_counts_nothing(self, how):
        transport = _CountingTransport(fail=(how == "raises"))
        transport.closing = how == "closing"
        errors, sent = [], []

        def scenario(loop, done):
            writer = wire.FrameWriter(
                transport, loop, on_sent=sent.append, on_error=errors.append
            )
            writer.write(_FRAMES[0])
            writer.write(_FRAMES[1])
            loop.call_soon(done.set_result, None)

        _on_loop(scenario)
        assert len(errors) == 1 and isinstance(errors[0], ConnectionError)
        assert sent == [] and transport.writes == []


# --------------------------------------------------------------------- #
# Completion inbox                                                      #
# --------------------------------------------------------------------- #
class _CountingLoop:
    """Proxy for a running loop that counts wake-ups in flight."""

    def __init__(self, loop):
        self._loop = loop
        self._lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.wakes = 0

    def call_soon_threadsafe(self, callback, *args):
        with self._lock:
            self.in_flight += 1
            self.wakes += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)

        def started():
            with self._lock:
                self.in_flight -= 1
            callback(*args)

        self._loop.call_soon_threadsafe(started)


class TestCompletionInbox:
    def test_stress_every_item_once_and_one_wake_in_flight(self):
        n_threads, per_thread = 4, 10_000
        loop = asyncio.new_event_loop()
        runner = threading.Thread(target=loop.run_forever, daemon=True)
        runner.start()
        counting = _CountingLoop(loop)
        delivered = []
        inbox = _CompletionInbox(
            counting, lambda *item: delivered.append(item)
        )
        barrier = threading.Barrier(n_threads)

        def producer(thread_index):
            barrier.wait()
            for i in range(per_thread):
                inbox.put(thread_index, i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=producer, args=(t,))
                for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        # Everything put before this point is followed by a wake or was
        # seen by a drain; one more pass of the loop settles it.
        settled = threading.Event()
        loop.call_soon_threadsafe(settled.set)
        assert settled.wait(30.0)
        loop.call_soon_threadsafe(loop.stop)
        runner.join(timeout=30.0)
        assert not runner.is_alive()
        loop.close()
        assert len(delivered) == n_threads * per_thread
        assert len(set(delivered)) == n_threads * per_thread
        for t in range(n_threads):   # per-producer order is kept
            assert [i for (who, i) in delivered if who == t] == list(
                range(per_thread)
            )
        assert counting.max_in_flight == 1
        assert counting.wakes < n_threads * per_thread  # batches, not items

    def test_closed_loop_drops_the_wake_quietly(self):
        loop = asyncio.new_event_loop()
        loop.close()
        inbox = _CompletionInbox(loop, lambda *item: None)
        inbox.put("late completion")  # shutdown race: must not raise


# --------------------------------------------------------------------- #
# Nagle                                                                 #
# --------------------------------------------------------------------- #
def test_client_socket_disables_nagle(fft_prototype):
    """Open-loop requests must not wait out the peer's delayed ACK."""
    server = RumbaServer(
        prototype=fft_prototype.clone_shard(),
        config=ServerConfig(n_workers=1),
    )
    with NetServer(server, "127.0.0.1", 0) as net:
        with RumbaClient(*net.address) as client:
            assert client._sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ) != 0
            first = client._sock
            first.shutdown(socket.SHUT_RDWR)   # and again after a redial
            client.stats()
            assert client._sock is not first
            assert client._sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ) != 0
