"""The serving hot path's allocation budget, as a check.

A reintroduced per-request copy (a batch buffer that is no longer
leased, outputs split by copying, a per-request metric child) shows up
as live allocations per request long before it moves a req/s number, and
the count does not depend on how fast the host is.  The figure is what
``tracemalloc`` still holds after a window of requests, handles and
results included — some twelve allocations a caller keeps per request
(the handle and its lock, two allocations each; the result, its output
view and scalars) plus each batch's share of the shard's retained
invocation records.

The window is made the same on every run: it is admitted whole before
the worker takes any of it (25 full batches), degradation is off (every
batch recovers at the configured threshold), and the collector runs
before each snapshot.  So measured, it reads 17.3 per request (19.3
while every handle carried a second lock of its own).  Earlier readings
came from windows whose batch count and threshold followed the host's
scheduling: 17.2–17.8 when a backlog raised the threshold, 18.0–18.9
while a batch crossed to a recovery thread as a task object on a queue,
18.1–19.3 before the checker scored a single-column tree by interval
lookup, 20.3–21.2 before requests and results were slotted and a
handle's callback list existed only once something registers.  The
budget is the reading + 1: room for interpreter noise, none for a copy.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.serving import (
    BackpressureConfig, BatchingConfig, RumbaServer, ServerConfig,
)

N_REQUESTS = 200
ELEMENTS_PER_REQUEST = 8
MAX_BATCH = 8
MAX_ALLOCS_PER_REQUEST = 18.3


def _batches(server):
    return server.stats()["workers"][0]["batches"]


def test_thread_hot_path_stays_within_its_allocation_budget(
    fft_prototype, fft_input_pool
):
    server = RumbaServer(
        prototype=fft_prototype.clone_shard(),
        config=ServerConfig(
            backend="thread",
            n_workers=1,
            seed=0,
            batching=BatchingConfig(
                max_batch_requests=MAX_BATCH, flush_interval_s=0.002
            ),
            # Never degrade under the window's 25-batch backlog: a raised
            # threshold recovers fewer rows, and so would hide what a
            # recovering batch retains.
            backpressure=BackpressureConfig(
                high_watermark=N_REQUESTS, low_watermark=0
            ),
        ),
    )
    span = fft_input_pool.shape[0] - ELEMENTS_PER_REQUEST
    offsets = [(i * ELEMENTS_PER_REQUEST) % span for i in range(N_REQUESTS)]
    with server:
        # Warm once so pool arenas, scratch buffers and metric children
        # exist before the measured window.
        server.submit_wait(fft_input_pool[:ELEMENTS_PER_REQUEST], timeout=60.0)
        warm_batches = _batches(server)
        tracemalloc.start()
        try:
            # Collect before each snapshot: cyclic garbage the collector
            # has not reached yet is not held, and when it runs depends on
            # what the process did before this test.
            gc.collect()
            before = tracemalloc.take_snapshot()
            # Admit the whole window before the worker may take any of it:
            # a worker left free takes a partial batch whenever it idles,
            # and every extra batch retains its own invocation record.
            with server._admission._cond:
                handles = [
                    server.submit(fft_input_pool[lo: lo + ELEMENTS_PER_REQUEST])
                    for lo in offsets
                ]
            results = [handle.result(timeout=60.0) for handle in handles]
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert _batches(server) - warm_batches == N_REQUESTS // MAX_BATCH
    assert len(results) == N_REQUESTS
    delta = sum(s.count_diff for s in after.compare_to(before, "filename"))
    assert delta / N_REQUESTS <= MAX_ALLOCS_PER_REQUEST, (
        f"{delta / N_REQUESTS:.1f} live allocations per request "
        f"(budget {MAX_ALLOCS_PER_REQUEST:.1f}): a per-request copy is back"
    )
