"""Chaos soak: serving fault tolerance under sustained worker churn.

Drives the :class:`~repro.serving.RumbaServer` through a closed-loop
request load while a :class:`~repro.serving.ChaosMonkey` kills worker
processes, injects batch faults, and damages control frames, then checks
the fault-tolerance invariants the supervisor is supposed to provide:

* **exactly-once accounting** — every submitted request either completes
  or fails fast with :class:`~repro.errors.ServingError`; none hang and
  none are silently dropped,
* **supervision** — each observed kill is matched by a worker restart
  (the pool ends the soak at full strength),
* **hygiene** — no shared-memory segments leak across the soak.

Run directly::

    python benchmarks/bench_chaos.py
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import numpy as np

from _bench_utils import emit, run_once

from repro.core import prepare_system
from repro.errors import ServingError
from repro.eval.reporting import banner, format_table
from repro.serving import (
    BatchingConfig,
    ChaosConfig,
    RetryConfig,
    RumbaServer,
    ServerConfig,
)

APP = "fft"
SCHEME = "treeErrors"
N_REQUESTS = 150
ELEMENTS_PER_REQUEST = 64
SWEEP = [
    # (label, backend, chaos spec)
    ("baseline", "process", ""),
    ("kills", "process", "kill=6,seed=1"),
    ("kills+faults", "process", "kill=6,fail=0.05,seed=2"),
    ("full chaos", "process",
     "kill=6,fail=0.05,drop=0.2,delay=0.002,corrupt=0.3,seed=3"),
    ("thread faults", "thread", "fail=0.1,seed=4"),
]


def _soak(server: RumbaServer, pool: np.ndarray) -> Dict[str, float]:
    completed = failed = hung = 0
    latencies: List[float] = []
    started = time.perf_counter()
    with server:
        handles = []
        for i in range(N_REQUESTS):
            lo = (i * ELEMENTS_PER_REQUEST) % (
                pool.shape[0] - ELEMENTS_PER_REQUEST
            )
            handles.append(
                server.submit(pool[lo: lo + ELEMENTS_PER_REQUEST])
            )
        for handle in handles:
            try:
                latencies.append(handle.result(timeout=60.0).latency_s)
                completed += 1
            except ServingError:
                if handle.done():
                    failed += 1
                else:
                    hung += 1
        stats = server.stats()
    elapsed = time.perf_counter() - started
    latencies.sort()
    chaos = stats.get("chaos") or {}
    return {
        "completed": completed,
        "failed": failed,
        "hung": hung,
        "requests_per_s": N_REQUESTS / elapsed,
        "p95_ms": latencies[int(len(latencies) * 0.95)] * 1e3
        if latencies else float("nan"),
        "kills": chaos.get("kills", 0),
        "injected_faults": chaos.get("injected_faults", 0),
        "restarts": stats["worker_restarts"],
        "retries": stats["retries"],
    }


def chaos_soak() -> List[Dict[str, float]]:
    prototype = prepare_system(APP, scheme=SCHEME, seed=0)
    pool = np.atleast_2d(prototype.app.test_inputs(np.random.default_rng(7)))
    results: List[Dict[str, float]] = []
    for label, backend, spec in SWEEP:
        shm_before = set(os.listdir("/dev/shm")) if os.path.isdir(
            "/dev/shm") else set()
        server = RumbaServer(
            prototype=prototype.clone_shard(),
            config=ServerConfig(
                backend=backend,
                n_workers=2,
                seed=0,
                batching=BatchingConfig(
                    max_batch_requests=8, flush_interval_s=0.002,
                ),
                retry=RetryConfig(retry_backoff_s=0.01),
                chaos=ChaosConfig.parse(spec) if spec else None,
            ),
        )
        point = _soak(server, pool)
        shm_after = set(os.listdir("/dev/shm")) if os.path.isdir(
            "/dev/shm") else set()
        point.update(label=label, backend=backend,
                     leaked_shm=len(shm_after - shm_before))
        results.append(point)
    return results


def test_chaos_soak(benchmark):
    results = run_once(benchmark, chaos_soak)
    emit(banner(
        f"Chaos soak ({APP}/{SCHEME}, {N_REQUESTS} requests x "
        f"{ELEMENTS_PER_REQUEST} elements per point)"
    ))
    emit(format_table(
        ["point", "backend", "done", "failed", "hung", "kills", "restarts",
         "retries", "req/s", "p95 ms", "shm leaks"],
        [
            [r["label"], r["backend"], r["completed"], r["failed"],
             r["hung"], r["kills"], r["restarts"], r["retries"],
             f"{r['requests_per_s']:.0f}", f"{r['p95_ms']:.2f}",
             r["leaked_shm"]]
            for r in results
        ],
    ))
    emit(json.dumps({"bench": "chaos_soak", "app": APP, "scheme": SCHEME,
                     "results": results}, indent=2))
    for r in results:
        # Exactly-once: all requests accounted for, zero hangs, ever.
        assert r["hung"] == 0, f"{r['label']}: {r['hung']} hung requests"
        assert r["completed"] + r["failed"] == N_REQUESTS, (
            f"{r['label']}: dropped requests"
        )
        # Hygiene: no shared-memory segments survive the soak.
        assert r["leaked_shm"] == 0, f"{r['label']}: leaked shm segments"
    baseline = next(r for r in results if r["label"] == "baseline")
    assert baseline["failed"] == 0 and baseline["restarts"] == 0


if __name__ == "__main__":
    test_chaos_soak(None)
