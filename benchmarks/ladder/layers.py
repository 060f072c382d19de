"""Per-layer timings taken from outside, through public functions only.

Each function times one layer standalone at the workload's own batch
shape and returns ``{metric name: value}``.  The core breakdown also
records spans (see :mod:`spans`) so that self time comes out of span
arithmetic rather than a second formula.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

import numpy as np

from repro.observability.metrics import MetricsRegistry
from repro.serving.batching import AdmissionQueue, concat_inputs, split_outputs
from repro.serving.bufpool import BufferPool
from repro.serving.net import protocol as wire
from repro.serving.request import ServeRequest
from repro.serving.shm import FRAME_BATCH, ShmRing

from spans import SpanRecorder

US = 1e6


def median_us(call: Callable[[], object], budget_s: float,
              inner: int = 1) -> float:
    """Median duration of ``call`` in microseconds.

    ``inner`` calls share one clock pair when a single call is too short
    to time on its own (a counter increment).
    """
    samples: List[float] = []
    for _ in range(3):   # lazy set-up and caches, outside the sample
        call()
    deadline = time.perf_counter() + budget_s
    while len(samples) < 15 or time.perf_counter() < deadline:
        began = time.perf_counter()
        for _ in range(inner):
            call()
        samples.append((time.perf_counter() - began) / inner)
        if len(samples) >= 20000:
            break
    return statistics.median(samples) * US


def core_breakdown(proto, batches: List[np.ndarray], recorder: SpanRecorder,
                   rounds: int) -> Dict[str, float]:
    """One invocation taken apart: the two public halves, the whole call,
    and every child call replayed on the same inputs."""
    shard = proto.clone_shard(max_records=64)
    backend = proto.backend
    app = proto.app
    detection = shard.detection
    recovery = shard.recovery
    clock = time.perf_counter
    n_rows = batches[0].shape[0]
    hidden = [np.empty((n_rows, w.shape[1]))
              for w in backend.network.weights[:-1]]
    net_out = np.empty((n_rows, backend.topology.n_outputs))
    for x in batches[:3]:
        shard.run_invocation(x, measure_quality=False)
    flagged = 0

    def halves(i: int, x) -> None:
        with recorder.span("core.halves", request_id=i) as parent:
            with recorder.span("core.begin", parent, i):
                pending = shard.begin_invocation(x, measure_quality=False)
            with recorder.span("core.complete", parent, i):
                shard.complete_invocation(pending)

    for i in range(rounds):
        x = batches[i % len(batches)]
        # The replayed children of the last round left the caches in their
        # state: one untimed pass, then take turns at going first.
        shard.run_invocation(x, measure_quality=False)
        if i % 2:
            halves(i, x)
        with recorder.span("core.run_invocation", request_id=i) as whole:
            shard.run_invocation(x, measure_quality=False)
        if not i % 2:
            halves(i, x)
        with recorder.span("approx.forward", whole, i, replayed=True):
            approx = backend(x)
            features = backend.features(x)
        scaled = backend.input_scaler.transform(features)
        # No parent: the backend runs its own scaler-folded copy of this
        # loop, so MLP.forward is the same kernel but not a part of it.
        with recorder.span("nn.forward", request_id=i):
            backend.network.forward(scaled, out=net_out, scratch=hidden)
        with recorder.span("core.detect", whole, i, replayed=True) as det:
            result = detection.detect_into(features=features,
                                           approx_outputs=approx)
        with recorder.span("predictors.scores", det, i, replayed=True):
            shard.predictor.scores(features=features, approx_outputs=approx)
        bits = result.recovery_bits
        with recorder.span("core.recover", whole, i, replayed=True) as rec:
            recovery.recover(x, approx, bits)
        rows = x[np.flatnonzero(bits)]
        if rows.shape[0]:
            began = clock()
            app.exact(rows)
            recorder.add("apps.exact", began, clock(), rec, i, replayed=True)
            flagged += rows.shape[0]
    durations = recorder.durations()
    selfs = recorder.self_times()

    def med(name: str) -> float:
        values = durations.get(name)
        return statistics.median(values) * US if values else 0.0

    exact_total = sum(durations.get("apps.exact", []))
    return {
        "nn.forward_us": med("nn.forward"),
        "approx.forward_us": med("approx.forward"),
        "predictors.scores_us": med("predictors.scores"),
        "core.detect_us": med("core.detect"),
        "core.recover_us": med("core.recover"),
        "apps.exact_us_per_elem": exact_total * US / flagged if flagged else 0.0,
        "core.begin_us": med("core.begin"),
        "core.complete_us": med("core.complete"),
        "core.invocation_us": med("core.run_invocation"),
        "core.self_us": statistics.median(selfs["core.run_invocation"]) * US,
        # Round by round, so that a host that drifts between the first and
        # the last round does not read as a disagreement.
        "halves_over_whole": statistics.median(
            h / w for h, w in zip(durations["core.halves"],
                                  durations["core.run_invocation"])),
    }


def batching(requests_inputs: List[np.ndarray], budget_s: float
             ) -> Dict[str, float]:
    """Admission queue and batch assembly, one full batch per call."""
    k = len(requests_inputs)
    admission = AdmissionQueue(capacity=4 * k, max_batch_requests=k,
                               flush_interval_s=0.0)
    requests = [ServeRequest(i, x, 0.0) for i, x in enumerate(requests_inputs)]

    def offer_take() -> None:
        for request in requests:
            admission.offer(request)
        admission.take_batch()

    pool = BufferPool()

    def concat_split() -> None:
        merged = concat_inputs(requests, pool=pool)
        split_outputs(merged, requests)
        pool.release(merged)

    return {
        "serving.batching.offer_take_us": median_us(offer_take, budget_s) / k,
        "serving.batching.concat_split_us":
            median_us(concat_split, budget_s) / k,
    }


def shm(requests_inputs: List[np.ndarray], budget_s: float
        ) -> Dict[str, float]:
    """One batch through a standalone ring: write, zero-copy read, advance."""
    ring = ShmRing(capacity_bytes=1 << 22)
    try:
        def write_read() -> None:
            ring.write_rows(FRAME_BATCH, 1, requests_inputs)
            frame = ring.try_read(zero_copy=True)
            ring.advance(frame)

        per_batch = median_us(write_read, budget_s)
    finally:
        ring.close()
        ring.unlink()
    return {"serving.shm.write_read_us": per_batch / len(requests_inputs)}


def codec(inputs: np.ndarray, outputs: np.ndarray, budget_s: float
          ) -> Dict[str, float]:
    """Both directions of one request through the wire codec."""
    sizes: List[int] = []

    def roundtrip() -> None:
        blob = wire.encode_frame(
            wire.FT_REQUEST, 1, wire.pack_request(inputs, deadline_s=5.0))
        frame = wire.decode_frame(blob[4:])
        wire.unpack_request(frame.body, version=frame.version)
        back = wire.encode_frame(
            wire.FT_RESULT, 1,
            wire.pack_result(outputs, "w0", 0.001, 0.002, 0.5, False))
        frame = wire.decode_frame(back[4:])
        wire.unpack_result(frame.body, version=frame.version)
        if not sizes:
            sizes.append(len(blob) + len(back))

    return {
        "serving.net.codec_us": median_us(roundtrip, budget_s),
        "serving.net.bytes_per_req": float(sizes[0]),
    }


def metric_observe(budget_s: float) -> Dict[str, float]:
    """One bound counter increment plus one histogram observation."""
    registry = MetricsRegistry()
    counter = registry.counter("ladder_probe_total", "probe", ("worker",))
    histogram = registry.histogram("ladder_probe_seconds", "probe",
                                   ("worker",))
    inc = counter.labels(worker="w0").inc
    observe = histogram.labels(worker="w0").observe

    def both() -> None:
        inc()
        observe(0.0013)

    return {"observability.metric_observe_us":
            median_us(both, budget_s, inner=200)}
