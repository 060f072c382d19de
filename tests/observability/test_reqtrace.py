"""Unit tests for the request-trace primitives (no server involved)."""

from __future__ import annotations

import pytest

from repro.observability.reqtrace import (
    STAGES,
    RequestTrace,
    TracingPolicy,
    new_trace_id,
    segments,
)
from repro.serving import TracingConfig


class TestTraceIds:
    def test_nonzero_u64(self):
        for _ in range(1000):
            trace_id = new_trace_id()
            assert 0 < trace_id < (1 << 64)

    def test_unique_within_process(self):
        ids = {new_trace_id() for _ in range(10000)}
        assert len(ids) == 10000


class TestRequestTrace:
    def test_stamps_accumulate_in_order(self):
        trace = RequestTrace()
        trace.stamp("admit", at=1.0)
        trace.stamp("dequeue", at=2.0)
        trace.stamp("complete", at=3.5)
        assert trace.stage_names() == ["admit", "dequeue", "complete"]
        assert trace.events()[-1] == ("complete", 3.5)

    def test_stamp_without_at_uses_monotonic_now(self):
        trace = RequestTrace()
        recorded = trace.stamp("admit")
        assert recorded == trace.events()[0][1]

    def test_segments_sum_to_duration(self):
        trace = RequestTrace()
        for i, stage in enumerate(("admit", "dequeue", "compute", "complete")):
            trace.stamp(stage, at=float(i) * 0.25)
        deltas = segments(trace.events())
        assert deltas[0] == ("admit", 0.0)  # first event anchors at zero
        assert sum(d for _, d in deltas) == pytest.approx(trace.duration())
        assert trace.duration() == pytest.approx(0.75)

    def test_clamp_pins_remote_stamps_to_monotonic(self):
        trace = RequestTrace()
        trace.stamp("admit", at=10.0)
        recorded = trace.stamp("shm_read", at=9.0, clamp=True)
        assert recorded == 10.0
        assert trace.is_monotonic()

    def test_splice_lands_a_worker_chain_where_it_happened(self):
        """A worker's record chain goes in before the stamps the parent
        took after it ended (collect), and a worker that read its frame
        before the dispatcher stamped shm_write is pinned to that stamp,
        not reordered in front of it."""
        trace = RequestTrace()
        for stage, at in (("admit", 1.0), ("dispatch", 2.0),
                          ("shm_write", 2.5), ("collect", 6.0)):
            trace.stamp(stage, at=at)
        trace.splice([("shm_read", 2.25), ("invoke", 2.6), ("compute", 3.0),
                      ("detect", 4.0), ("recover", 5.0), ("tune", 5.5)])
        assert trace.events() == [
            ("admit", 1.0), ("dispatch", 2.0), ("shm_write", 2.5),
            ("shm_read", 2.5), ("invoke", 2.6), ("compute", 3.0),
            ("detect", 4.0), ("recover", 5.0), ("tune", 5.5),
            ("collect", 6.0),
        ]
        assert trace.is_monotonic()

    def test_splice_appends_when_nothing_was_stamped_since(self):
        trace = RequestTrace()
        trace.stamp("dispatch", at=1.0)
        trace.splice([("invoke", 1.5), ("compute", 2.0)])
        trace.splice([])
        assert trace.stage_names() == ["dispatch", "invoke", "compute"]

    def test_unclamped_backwards_stamp_is_detectable(self):
        trace = RequestTrace()
        trace.stamp("admit", at=10.0)
        trace.stamp("shm_read", at=9.0)
        assert not trace.is_monotonic()

    def test_mark_sampled_promotes(self):
        trace = RequestTrace(sampled=False)
        assert not trace.sampled
        trace.mark_sampled()
        assert trace.sampled

    def test_explicit_trace_id_is_kept(self):
        trace = RequestTrace(trace_id=0xDEAD)
        assert trace.trace_id == 0xDEAD

    def test_zero_trace_id_means_assign_one(self):
        assert RequestTrace(trace_id=0).trace_id != 0

    def test_duration_with_fewer_than_two_events(self):
        trace = RequestTrace()
        assert trace.duration() == 0.0
        trace.stamp("admit")
        assert trace.duration() == 0.0

    def test_stage_catalog_is_ordered_and_unique(self):
        assert len(set(STAGES)) == len(STAGES)
        assert STAGES[0] == "router_recv" and STAGES[-1] == "net_send"
        # The single-node pipeline still starts at the TCP front-end.
        assert STAGES[2] == "net_recv"


class TestTracingPolicy:
    def test_disabled_returns_none(self):
        policy = TracingPolicy(enabled=False)
        assert policy.new_trace() is None

    def test_counter_sampling_is_exact(self):
        policy = TracingPolicy(sample_every=4)
        sampled = [policy.new_trace().sampled for _ in range(12)]
        assert sampled == [True, False, False, False] * 3

    def test_sample_every_one_keeps_everything(self):
        policy = TracingPolicy(sample_every=1)
        assert all(policy.new_trace().sampled for _ in range(16))

    def test_force_overrides_both_ways(self):
        policy = TracingPolicy(sample_every=1)
        assert policy.new_trace(force=False).sampled is False
        policy = TracingPolicy(sample_every=1 << 30)
        policy.new_trace()  # burn the one free sample at counter zero
        assert policy.new_trace(force=True).sampled is True

    def test_caller_supplied_trace_id_propagates(self):
        policy = TracingPolicy()
        assert policy.new_trace(trace_id=77).trace_id == 77

    def test_from_config(self):
        config = TracingConfig(sample_every=9, always_sample_errors=False)
        policy = TracingPolicy.from_config(config)
        assert policy.sample_every == 9
        assert policy.always_sample_errors is False
        assert policy.enabled is True

    def test_sample_every_floor_is_one(self):
        assert TracingPolicy(sample_every=0).sample_every == 1
