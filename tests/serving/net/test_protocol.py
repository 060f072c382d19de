"""Wire-codec unit tests: round trips, then systematic frame fuzzing.

Everything here is pure bytes — no sockets, no server — so the fuzz
cases can enumerate malformed frames exhaustively and assert the codec's
one contract: bad bytes raise :class:`ProtocolError` (and only that),
good bytes round-trip losslessly.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    OverloadedError,
    ProtocolError,
    ServingError,
    WorkerCrashError,
)
from repro.serving.net import protocol as wire


def _frame_blob(frame_type=wire.FT_REQUEST, request_id=7, body=b""):
    """The bytes after the length prefix, as they travel."""
    full = wire.encode_frame(frame_type, request_id, body)
    return full[4:]


class TestRoundTrips:
    def test_frame_envelope(self):
        body = b"payload-bytes"
        blob = wire.encode_frame(wire.FT_RESULT, 12345, body)
        (length,) = struct.unpack_from("<I", blob)
        assert length == len(blob) - 4
        frame = wire.decode_frame(blob[4:])
        assert frame.frame_type == wire.FT_RESULT
        assert frame.request_id == 12345
        assert frame.body == body
        assert frame.type_name == "RESULT"

    def test_request_body(self):
        inputs = np.arange(12, dtype=np.float64).reshape(4, 3)
        body = wire.pack_request(inputs, deadline_s=2.5, scheme="treeErrors")
        out, deadline, scheme, trace_id, force = wire.unpack_request(body)
        np.testing.assert_array_equal(out, inputs)
        assert deadline == 2.5
        assert scheme == "treeErrors"
        assert trace_id == 0
        assert force is False

    def test_request_body_defaults(self):
        body = wire.pack_request(np.zeros((1, 1)))
        out, deadline, scheme, trace_id, force = wire.unpack_request(body)
        assert deadline is None
        assert scheme == ""
        assert out.shape == (1, 1)
        assert trace_id == 0
        assert force is False

    def test_request_trace_block(self):
        body = wire.pack_request(
            np.zeros((1, 1)), trace_id=0xDEADBEEFCAFEF00D, force_sample=True
        )
        _, _, _, trace_id, force = wire.unpack_request(body)
        assert trace_id == 0xDEADBEEFCAFEF00D
        assert force is True

    def test_result_body(self):
        outputs = np.linspace(0.0, 1.0, 10).reshape(5, 2)
        body = wire.pack_result(
            outputs, worker="w3", queue_wait_s=0.001, latency_s=0.25,
            fix_fraction=0.125, degraded=True,
        )
        fields = wire.unpack_result(body)
        np.testing.assert_array_equal(fields["outputs"], outputs)
        assert fields["worker"] == "w3"
        assert fields["queue_wait_s"] == 0.001
        assert fields["latency_s"] == 0.25
        assert fields["fix_fraction"] == 0.125
        assert fields["degraded"] is True
        assert fields["trace_id"] == 0
        assert fields["trace_sampled"] is False

    def test_result_trace_echo(self):
        body = wire.pack_result(
            np.zeros((1, 1)), worker="w0", queue_wait_s=0.0, latency_s=0.0,
            fix_fraction=0.0, degraded=False,
            trace_id=(1 << 63) + 17, trace_sampled=True,
        )
        fields = wire.unpack_result(body)
        assert fields["trace_id"] == (1 << 63) + 17
        assert fields["trace_sampled"] is True

    def test_error_body(self):
        body = wire.pack_error(wire.ERR_OVERLOADED, "queue is full")
        assert wire.unpack_error(body) == (wire.ERR_OVERLOADED,
                                           "queue is full")

    def test_long_error_message_is_cut_on_a_character_boundary(self):
        message = "\u20ac" * 30000  # 90,000 UTF-8 bytes, 3 per character
        code, back = wire.unpack_error(
            wire.pack_error(wire.ERR_SERVING, message)
        )
        assert code == wire.ERR_SERVING
        assert message.startswith(back)
        assert len(back.encode("utf-8")) == 65000 // 3 * 3

    def test_json_body(self):
        doc = {"app": "fft", "nested": {"x": [1, 2, 3]}}
        assert wire.unpack_json(wire.pack_json(doc)) == doc

    def test_full_frame_round_trip_via_decode(self):
        inputs = np.random.default_rng(0).random((8, 2))
        blob = _frame_blob(body=wire.pack_request(inputs, deadline_s=1.0))
        frame = wire.decode_frame(blob)
        assert frame.version == wire.PROTOCOL_VERSION
        out, deadline, _, _, _ = wire.unpack_request(
            frame.body, version=frame.version
        )
        np.testing.assert_array_equal(out, inputs)
        assert deadline == 1.0

    def test_unpackers_refuse_any_other_version(self):
        request = wire.pack_request(np.ones((1, 1)))
        result = wire.pack_result(np.ones((1, 1)), "w", 0.0, 0.0, 0.0, False)
        for version in (1, wire.PROTOCOL_VERSION + 1):
            with pytest.raises(ProtocolError, match="version"):
                wire.unpack_request(request, version=version)
            with pytest.raises(ProtocolError, match="version"):
                wire.unpack_result(result, version=version)


class TestErrorMapping:
    @pytest.mark.parametrize("exc,code", [
        (ProtocolError("x"), wire.ERR_PROTOCOL),
        (OverloadedError("x"), wire.ERR_OVERLOADED),
        (WorkerCrashError("x"), wire.ERR_WORKER_CRASH),
        (ConfigurationError("x"), wire.ERR_CONFIGURATION),
        (ServingError("x"), wire.ERR_SERVING),
        (RuntimeError("x"), wire.ERR_INTERNAL),
    ])
    def test_exception_to_code(self, exc, code):
        assert wire.exception_to_code(exc) == code

    @pytest.mark.parametrize("code,exc_type", [
        (wire.ERR_PROTOCOL, ProtocolError),
        (wire.ERR_OVERLOADED, OverloadedError),
        (wire.ERR_WORKER_CRASH, WorkerCrashError),
        (wire.ERR_CONFIGURATION, ConfigurationError),
        (wire.ERR_SERVING, ServingError),
        (wire.ERR_INTERNAL, ServingError),
        (999, ServingError),  # unknown codes degrade to the base class
    ])
    def test_code_to_exception(self, code, exc_type):
        exc = wire.code_to_exception(code, "message")
        assert type(exc) is exc_type
        assert str(exc) == "message"


class TestFrameFuzz:
    """Every malformed mutation must raise ProtocolError — nothing else."""

    def test_truncated_below_minimum(self):
        blob = _frame_blob()
        for cut in range(wire.MIN_FRAME_LENGTH):
            with pytest.raises(ProtocolError, match="truncated"):
                wire.decode_frame(blob[:cut])

    def test_truncated_mid_body(self):
        blob = _frame_blob(body=b"x" * 64)
        # Long enough to carry a CRC, but the CRC can't match the cut.
        with pytest.raises(ProtocolError, match="CRC"):
            wire.decode_frame(blob[:-10])

    def test_bad_magic(self):
        blob = bytearray(_frame_blob())
        struct.pack_into("<I", blob, 0, 0xDEADBEEF)
        self._refresh_crc(blob)
        with pytest.raises(ProtocolError, match="magic"):
            wire.decode_frame(bytes(blob))

    def test_wrong_version(self):
        blob = bytearray(_frame_blob())
        struct.pack_into("<H", blob, 4, wire.PROTOCOL_VERSION + 1)
        self._refresh_crc(blob)
        with pytest.raises(ProtocolError, match="version"):
            wire.decode_frame(bytes(blob))

    def test_version_1_is_refused(self):
        """A whole v1 frame — its header, and a REQUEST body without the
        trace block — is refused on the header."""
        blob = bytearray(_frame_blob(
            body=wire.pack_request(np.ones((2, 2)))[:-9]
        ))
        struct.pack_into("<H", blob, 4, 1)
        self._refresh_crc(blob)
        with pytest.raises(ProtocolError, match="version 1"):
            wire.decode_frame(bytes(blob))

    def test_unknown_frame_type(self):
        blob = bytearray(_frame_blob())
        struct.pack_into("<H", blob, 6, 250)
        self._refresh_crc(blob)
        with pytest.raises(ProtocolError, match="frame type"):
            wire.decode_frame(bytes(blob))

    def test_corrupted_crc(self):
        blob = bytearray(_frame_blob(body=b"payload"))
        blob[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="CRC"):
            wire.decode_frame(bytes(blob))

    def test_single_bit_flips_are_detected(self):
        blob = _frame_blob(body=wire.pack_request(np.ones((2, 2))))
        for bit in range(0, len(blob) * 8, 37):  # sampled, still dozens
            mutated = bytearray(blob)
            mutated[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ProtocolError):
                wire.decode_frame(bytes(mutated))

    def test_oversized_length_prefix(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            wire.check_frame_length(1 << 31, wire.DEFAULT_MAX_FRAME_BYTES)

    def test_undersized_length_prefix(self):
        with pytest.raises(ProtocolError, match="below minimum"):
            wire.check_frame_length(3, wire.DEFAULT_MAX_FRAME_BYTES)

    def test_request_body_fuzz(self):
        good = wire.pack_request(np.ones((4, 2)), deadline_s=1.0, scheme="t")
        for cut in range(len(good)):
            with pytest.raises(ProtocolError):
                wire.unpack_request(good[:cut])
        with pytest.raises(ProtocolError, match="trailing"):
            wire.unpack_request(good + b"\x00")

    def test_result_body_fuzz(self):
        good = wire.pack_result(np.ones((2, 2)), "w0", 0.0, 0.0, 0.0, False)
        for cut in range(len(good)):
            with pytest.raises(ProtocolError):
                wire.unpack_result(good[:cut])
        with pytest.raises(ProtocolError, match="trailing"):
            wire.unpack_result(good + b"\x00")

    def test_matrix_header_overclaims_rows(self):
        body = bytearray(wire.pack_request(np.ones((2, 2))))
        # The matrix header sits right after deadline + scheme-length.
        struct.pack_into("<II", body, 8 + 2, 1 << 20, 1 << 20)
        with pytest.raises(ProtocolError, match="truncated"):
            wire.unpack_request(bytes(body))

    def test_undecodable_strings_and_json(self):
        bad_str = struct.pack("<H", 2) + b"\xff\xfe"
        with pytest.raises(ProtocolError, match="undecodable"):
            wire.unpack_request(struct.pack("<d", 1.0) + bad_str)
        with pytest.raises(ProtocolError, match="JSON"):
            wire.unpack_json(b"not json at all")
        with pytest.raises(ProtocolError, match="object"):
            wire.unpack_json(b"[1,2,3]")

    @staticmethod
    def _refresh_crc(blob: bytearray) -> None:
        """Recompute the CRC so the mutation under test is what fails."""
        crc = zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF
        struct.pack_into("<I", blob, len(blob) - 4, crc)


class TestParseAddress:
    def test_host_port_string(self):
        assert wire.parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_tuple_passthrough(self):
        assert wire.parse_address(("localhost", "80")) == ("localhost", 80)

    def test_ipv6_brackets(self):
        assert wire.parse_address("[::1]:9000") == ("::1", 9000)

    @pytest.mark.parametrize("bad", ["nocolon", ":9000", "h:x", 12, None])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            wire.parse_address(bad)
