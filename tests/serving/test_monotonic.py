"""Regression guard: serving deadlines are wall-clock independent.

An audit of the serving stack (admission flush deadlines, request
deadline budgets, retry backoff, supervisor restart windows, the network
edge) standardized every time source on ``time.monotonic()``.

These tests enforce that invariant the only way that matters: they yank
the wall clock a year in either direction mid-flight and assert the
server still batches, flushes, and meets deadlines.  Any code path that
sneaks ``time.time()`` back into deadline math fails loudly here —
requests would either expire instantly (clock forward) or never flush
(clock backward).
"""

from __future__ import annotations

import time

import pytest

from repro.serving import (
    BatchingConfig,
    RetryConfig,
    RumbaServer,
    ServeRequest,
    ServerConfig,
)

YEAR_S = 3.15e7


@pytest.fixture(params=[-YEAR_S, YEAR_S],
                ids=["clock-back-1y", "clock-fwd-1y"])
def skewed_wall_clock(request, monkeypatch):
    """time.time() lies by a year; time.monotonic() stays honest."""
    real_time = time.time
    monkeypatch.setattr(
        time, "time", lambda: real_time() + request.param
    )
    return request.param


class TestWallClockIndependence:
    def test_serving_survives_wall_clock_skew(
        self, skewed_wall_clock, fft_prototype, fft_input_pool
    ):
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                n_workers=1,
                batching=BatchingConfig(max_batch_requests=4,
                                        flush_interval_s=0.002),
                retry=RetryConfig(default_deadline_s=10.0),
            ),
        )
        with server:
            # A short-deadline request must still complete: if any layer
            # compared a monotonic submission stamp against wall clock,
            # the year of skew would blow the 5 s budget instantly
            # (forward) or make the flush deadline unreachable (back).
            handles = [
                server.submit(fft_input_pool[i: i + 8], deadline_s=5.0)
                for i in range(6)
            ]
            results = [h.result(timeout=30.0) for h in handles]
        assert all(r.outputs.shape[0] == 8 for r in results)
        assert all(0.0 <= r.latency_s < 30.0 for r in results)
        assert all(0.0 <= r.queue_wait_s < 30.0 for r in results)

    def test_request_deadline_is_monotonic_based(self, skewed_wall_clock):
        import numpy as np

        request = ServeRequest(
            request_id=1,
            inputs=np.zeros((1, 1)),
            submitted_at=time.monotonic(),
            deadline_s=5.0,
        )
        expires = request.deadline_at(default_deadline_s=30.0)
        # The expiry lands ~5 s ahead on the monotonic axis, unaffected
        # by the year of wall-clock skew the fixture injected.
        assert 0.0 < expires - time.monotonic() <= 5.0

    def test_net_edge_survives_wall_clock_skew(
        self, skewed_wall_clock, fft_prototype, fft_input_pool
    ):
        from repro.serving import NetServer, RumbaClient

        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(n_workers=1),
        )
        with NetServer(server, "127.0.0.1", 0) as net:
            with RumbaClient(*net.address) as client:
                result = client.submit_wait(
                    fft_input_pool[:8], deadline_s=5.0, timeout=30.0
                )
        assert result.outputs.shape[0] == 8
