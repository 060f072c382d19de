"""The serving hot path's allocation budget, as a check.

A reintroduced per-request copy (a batch buffer that is no longer
leased, outputs split by copying, a per-request metric child) shows up
as live allocations per request long before it moves a req/s number, and
the count does not depend on how fast the host is.  The figure is what
``tracemalloc`` still holds after a window of requests, handles and
results included — some fourteen allocations a caller keeps per request
(the handle and its two locks, two allocations each; the result, its
output view and scalars) plus each batch's share of the shard's
retained invocation records.  It
reads 17.2–17.8 per request (18.0–18.9 while a batch crossed to a
recovery thread as a task object on a queue, 18.1–19.3 before the
checker scored a single-column tree by interval lookup, 20.3–21.2 before
requests and results were slotted and a handle's callback list existed
only once something registers); the budget is that reading + 1, room
for interpreter noise and a fragmented batch or two, none for a copy.
"""

from __future__ import annotations

import tracemalloc

from repro.serving import BatchingConfig, RumbaServer, ServerConfig

N_REQUESTS = 200
ELEMENTS_PER_REQUEST = 8
MAX_ALLOCS_PER_REQUEST = 19.0


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
                max_batch_requests=8, flush_interval_s=0.002
            ),
        ),
    )
    span = fft_input_pool.shape[0] - ELEMENTS_PER_REQUEST
    offsets = [(i * ELEMENTS_PER_REQUEST) % span for i in range(N_REQUESTS)]
    with server:
        # Warm once so pool arenas, scratch buffers and metric children
        # exist before the measured window.
        server.submit_wait(fft_input_pool[:ELEMENTS_PER_REQUEST], timeout=60.0)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            handles = [
                server.submit(fft_input_pool[lo: lo + ELEMENTS_PER_REQUEST])
                for lo in offsets
            ]
            results = [handle.result(timeout=60.0) for handle in handles]
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    assert len(results) == N_REQUESTS
    delta = sum(s.count_diff for s in after.compare_to(before, "filename"))
    assert delta / N_REQUESTS <= MAX_ALLOCS_PER_REQUEST, (
        f"{delta / N_REQUESTS:.1f} live allocations per request "
        f"(budget {MAX_ALLOCS_PER_REQUEST:.0f}): a per-request copy is back"
    )
