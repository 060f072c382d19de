"""The router's byte-level relay against the decode/re-encode it replaced.

Pure bytes.  The reference is the path the router used to take —
``unpack_*`` -> ``pack_*`` -> ``encode_frame`` — so "byte-identical"
means a client or node cannot tell which one produced a frame.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.serving.net import protocol as wire

_TEXT = st.text(max_size=24)  # scheme / worker names, any unicode
_U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _matrices(draw):
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(0, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed).standard_normal((n_rows, n_cols))
    if data.size and draw(st.booleans()):
        data.flat[0] = draw(st.sampled_from([np.nan, np.inf, -0.0]))
    return data


class TestRelayEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        inputs=_matrices(), scheme=_TEXT,
        deadline=st.one_of(st.none(), _FINITE),
        trace_id=_U64, force=st.booleans(), router_trace=_U64,
        remaining=st.floats(min_value=1e-6, max_value=1e6),
        backend_id=_U64,
    )
    def test_request(self, inputs, scheme, deadline, trace_id, force,
                     router_trace, remaining, backend_id):
        body = wire.pack_request(
            inputs, deadline_s=deadline, scheme=scheme, trace_id=trace_id,
            force_sample=force,
        )
        decoded, _, d_scheme, d_trace, d_force = wire.unpack_request(body)
        forwarded_trace = d_trace or router_trace
        expected = wire.encode_frame(
            wire.FT_REQUEST, backend_id,
            wire.pack_request(
                decoded, deadline_s=remaining, scheme=d_scheme,
                trace_id=forwarded_trace, force_sample=d_force,
            ),
        )
        view = wire.peek_request(body)
        assert (view.scheme, view.trace_id, view.force_sample) == (
            d_scheme, d_trace, d_force
        )
        assert view.n_rows * view.n_cols == decoded.size
        assert wire.relay_request(
            body, view, backend_id, remaining, forwarded_trace
        ) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        outputs=_matrices(), worker=_TEXT, node=_TEXT,
        timings=st.tuples(_FINITE, _FINITE, _FINITE),
        degraded=st.booleans(), trace_id=_U64, sampled=st.booleans(),
        entry_trace=_U64, client_id=_U64,
    )
    def test_result(self, outputs, worker, node, timings, degraded,
                    trace_id, sampled, entry_trace, client_id):
        body = wire.pack_result(
            outputs, worker, *timings, degraded, trace_id=trace_id,
            trace_sampled=sampled,
        )
        doc = wire.unpack_result(body)
        expected = wire.encode_frame(
            wire.FT_RESULT, client_id,
            wire.pack_result(
                outputs=doc["outputs"], worker=f"{node}/{doc['worker']}",
                queue_wait_s=doc["queue_wait_s"],
                latency_s=doc["latency_s"],
                fix_fraction=doc["fix_fraction"], degraded=doc["degraded"],
                trace_id=doc["trace_id"] or entry_trace,
                trace_sampled=doc["trace_sampled"],
            ),
        )
        view = wire.peek_result(body)
        assert wire.relay_result(
            body, view, client_id, f"{node}/", entry_trace
        ) == expected

    def test_relay_does_not_copy_flag_bits_it_does_not_own(self):
        """Reserved flag bits and a non-0/1 degraded byte are normalised
        exactly as a decode/re-encode would."""
        body = bytearray(wire.pack_result(
            np.ones((1, 1)), "w", 0.0, 0.0, 0.0, True, trace_sampled=True
        ))
        body[24] = 7            # degraded: any non-zero byte
        body[-1] = 0xF1         # flags: sampled + reserved bits
        body = bytes(body)
        frame = wire.decode_frame(wire.relay_result(
            body, wire.peek_result(body), 1, "n/", 0
        )[4:])
        assert frame.body[24] == 1 and frame.body[-1] == 1

    def test_worker_name_that_outgrows_its_length_field_is_typed(self):
        body = wire.pack_result(
            np.ones((1, 1)), "w" * 65000, 0.0, 0.0, 0.0, False
        )
        with pytest.raises(ProtocolError, match="worker name"):
            wire.relay_result(
                body, wire.peek_result(body), 1, "n" * 600 + "/", 0
            )


def _hostile(good: bytes, matrix_header_at: int):
    """Every way a body can lie about itself."""
    cases = [good[:cut] for cut in range(len(good))]        # truncated
    cases += [good + b"\x00", good + good]                   # trailing
    oversize = bytearray(good)
    struct.pack_into("<II", oversize, matrix_header_at, 1 << 20, 1 << 20)
    cases.append(bytes(oversize))                            # dims overclaim
    u32 = bytearray(good)
    struct.pack_into("<II", u32, matrix_header_at, 0xFFFFFFFF, 0xFFFFFFFF)
    cases.append(bytes(u32))
    bad_utf8 = bytearray(good)
    bad_utf8[matrix_header_at - 2: matrix_header_at] = b"\xff\xfe"
    cases.append(bytes(bad_utf8))                            # undecodable
    return cases


def _outcome(function, body):
    try:
        function(body)
    except ProtocolError as exc:
        return str(exc)
    return None


class TestHostileBodies:
    def test_peek_request_rejects_what_unpack_rejects(self):
        good = wire.pack_request(np.ones((4, 2)), deadline_s=1.0,
                                 scheme="tree")
        rejected = 0
        for body in _hostile(good, matrix_header_at=8 + 2 + 4):
            error = _outcome(wire.unpack_request, body)
            assert _outcome(wire.peek_request, body) == error
            rejected += error is not None
        assert rejected == len(good) + 5
        assert _outcome(wire.peek_request, good) is None

    def test_peek_result_rejects_what_unpack_rejects(self):
        good = wire.pack_result(np.ones((2, 2)), "w0", 0.0, 0.0, 0.0, False)
        rejected = 0
        for body in _hostile(good, matrix_header_at=25 + 2 + 2):
            error = _outcome(wire.unpack_result, body)
            assert _outcome(wire.peek_result, body) == error
            rejected += error is not None
        assert rejected == len(good) + 5
        assert _outcome(wire.peek_result, good) is None

    def test_the_errors_are_the_ones_the_decoders_always_raised(self):
        good = wire.pack_request(np.ones((4, 2)), scheme="tree")
        for body, needle in [
            (good[:7], "truncated before deadline"),
            (good[:9], "truncated before string length"),
            (good[:12], "truncated inside string"),
            (good[:16], "truncated before matrix header"),
            (good[:40], r"matrix claims 4x2 \(64 bytes\) but only"),
            (good[:-1], "truncated before trace block"),
            (good + b"\x00", "1 trailing bytes"),
        ]:
            with pytest.raises(ProtocolError, match=needle):
                wire.peek_request(body)
        result = wire.pack_result(np.ones((1, 1)), "w", 0.0, 0.0, 0.0, False)
        with pytest.raises(ProtocolError, match="truncated before metadata"):
            wire.peek_result(result[:24])
