"""The thread backend holds its GIL-sharing threads on one CPU.

``ThreadTransport.start()`` pins the starting thread to the CPU it runs
on; the shard threads, the retry thread and a fronting ``NetServer``
loop inherit the mask, and the last ``stop()`` gives the starter back its
mask.  The process backend takes no hold, and no child process — pool
worker or fleet node — inherits one.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.serving import (
    NetServer,
    ProcessWorkerPool,
    RumbaServer,
    ServerConfig,
    spawn_local_fleet,
)

if not hasattr(os, "sched_getaffinity"):
    pytest.skip("CPU masks are a Linux feature", allow_module_level=True)


@pytest.fixture
def mask():
    """The test thread's mask; each case needs at least 2 CPUs in it."""
    before = os.sched_getaffinity(0)
    if len(before) < 2:
        pytest.skip("the test thread's mask holds fewer than 2 CPUs")
    return before


def _thread_server(prototype, **config) -> RumbaServer:
    return RumbaServer(
        prototype=prototype.clone_shard(),
        config=ServerConfig(n_workers=2, **config),
    )


def _masks(*prefixes: str) -> dict:
    return {
        thread.name: os.sched_getaffinity(thread.native_id)
        for thread in threading.enumerate()
        if thread.name.startswith(prefixes)
    }


def test_starter_shards_and_net_loop_share_one_cpu(mask, fft_prototype):
    net = NetServer(_thread_server(fft_prototype), "127.0.0.1", 0).start()
    try:
        cpu = net.server.stats()["cpu_hold"]
        assert cpu in mask
        masks = _masks("rumba-serve-", "rumba-net-loop")
        assert {"rumba-serve-w0", "rumba-serve-w1", "rumba-serve-retry",
                "rumba-net-loop"} <= set(masks)
        assert set(map(frozenset, masks.values())) == {frozenset({cpu})}
        assert os.sched_getaffinity(0) == {cpu}
    finally:
        net.stop()
    assert os.sched_getaffinity(0) == mask
    assert net.server.stats()["cpu_hold"] is None


def test_stop_restores_the_starters_mask_exactly(mask, fft_prototype):
    # A narrowed (but multi-CPU) mask must come back as it was, not as
    # every CPU of the host.
    narrowed = set(sorted(mask)[:2])
    os.sched_setaffinity(0, narrowed)
    try:
        server = _thread_server(fft_prototype).start()
        assert os.sched_getaffinity(0) == {server.stats()["cpu_hold"]}
        server.stop()
        assert os.sched_getaffinity(0) == narrowed
    finally:
        os.sched_setaffinity(0, mask)


def test_nested_servers_release_on_the_last_stop(mask, fft_prototype):
    first = _thread_server(fft_prototype).start()
    second = _thread_server(fft_prototype).start()
    try:
        cpu = first.stats()["cpu_hold"]
        assert second.stats()["cpu_hold"] == cpu
        # The last stop releases, whichever thread calls it.
        stopper = threading.Thread(target=first.stop)
        stopper.start()
        stopper.join(timeout=30.0)
        assert not stopper.is_alive()
        assert os.sched_getaffinity(0) == {cpu}
    finally:
        first.stop()
        second.stop()
    assert os.sched_getaffinity(0) == mask


def test_process_backend_takes_no_hold(mask, fft_prototype):
    server = _thread_server(fft_prototype, backend="process").start()
    try:
        assert server.stats()["cpu_hold"] is None
        assert os.sched_getaffinity(0) == mask
        assert all(os.sched_getaffinity(w.process.pid) == mask
                   for w in server.pool.workers)
    finally:
        server.stop()


def test_a_single_cpu_mask_is_left_alone(mask, fft_prototype):
    # A user's taskset wins: the hold takes nothing and releases nothing.
    only = {max(mask)}
    os.sched_setaffinity(0, only)
    try:
        server = _thread_server(fft_prototype).start()
        assert server.stats()["cpu_hold"] is None
        assert _masks("rumba-serve-w0")["rumba-serve-w0"] == only
        server.stop()
        assert os.sched_getaffinity(0) == only
    finally:
        os.sched_setaffinity(0, mask)


def test_no_sched_setaffinity_is_a_no_op(mask, fft_prototype, monkeypatch):
    monkeypatch.delattr(os, "sched_setaffinity")
    with _thread_server(fft_prototype) as server:
        assert server.stats()["cpu_hold"] is None
        assert os.sched_getaffinity(0) == mask


@pytest.mark.slow
def test_spawned_children_start_with_the_pre_hold_mask(mask, fft_prototype):
    with _thread_server(fft_prototype) as server:
        assert os.sched_getaffinity(0) == {server.stats()["cpu_hold"]}
        pool = ProcessWorkerPool(fft_prototype, n_workers=1).start()
        try:
            worker = pool.workers[0]
            assert os.sched_getaffinity(worker.process.pid) == mask
            # A restart runs on the collector, a thread that inherited
            # the hold rather than took it.
            restarter = threading.Thread(target=pool.restart_worker,
                                         args=(worker,))
            restarter.start()
            restarter.join(timeout=30.0)
            assert not restarter.is_alive()
            assert worker.restarts == 1
            assert os.sched_getaffinity(worker.process.pid) == mask
        finally:
            pool.stop()
        # A process-backend node: its main thread keeps what it inherited
        # (a thread-backend node would hold a CPU of its own).
        with spawn_local_fleet(1, backend="process") as fleet:
            node = fleet.workers[0].process.pid
            assert os.sched_getaffinity(node) == mask
        assert os.sched_getaffinity(0) == {server.stats()["cpu_hold"]}
