"""Serving-layer fixtures: one trained prototype shared by every test."""

from __future__ import annotations

import logging
import os
import signal
import sys
import time

import numpy as np
import pytest

from repro.core import prepare_system


_ASYNCIO_DEBUG = bool(
    sys.flags.dev_mode or os.environ.get("PYTHONASYNCIODEBUG")
)


@pytest.fixture(autouse=True)
def asyncio_debug_is_strict(request):
    """Under ``python -X dev`` / ``PYTHONASYNCIODEBUG=1`` (the CI's second
    pass over the net and cluster suites) anything asyncio's debug mode
    logs — a callback that held the loop > 100 ms, an exception lost in
    a callback, a task destroyed while pending — fails the test that
    caused it.  A plain run does not even install the log capture."""
    if not _ASYNCIO_DEBUG:
        yield
        return
    caplog = request.getfixturevalue("caplog")
    yield
    complaints = [
        record.getMessage() for record in caplog.get_records("call")
        + caplog.get_records("teardown")
        if record.name == "asyncio" and record.levelno >= logging.WARNING
    ]
    assert not complaints, complaints


@pytest.fixture(scope="session")
def fft_prototype():
    return prepare_system("fft", scheme="treeErrors", seed=0)


@pytest.fixture(scope="session")
def fft_input_pool(fft_prototype):
    rng = np.random.default_rng(42)
    return np.atleast_2d(fft_prototype.app.test_inputs(rng))


class FakeTransport:
    """A transport with no workers: dispatched batches park in
    ``batches`` until the test completes or fails them, and nothing runs
    on a thread — the test pumps the core by hand with
    ``server._pump_once(fake.dispatch)``."""

    pool = None
    cpu_hold = None

    def __init__(self, on_complete, on_failure):
        self._on_complete, self._on_failure = on_complete, on_failure
        self.batches = []

    def prepare(self, prototype):
        return [("f0", None)]

    def start(self, pump):
        pass

    def stop(self, timeout):
        pass

    def dispatch(self, batch):
        self.batches.append(batch)

    def workers(self):
        return [("f0", True, 0, {})]

    def complete(self, batch, **report):
        """Finish ``batch``; ``report`` adds to (or overrides) the bare
        worker report."""
        self.batches.remove(batch)
        rows = sum(r.n_elements for r in batch.requests)
        self._on_complete(
            batch, "f0", np.zeros((rows, 1)),
            dict({"fix_fraction": 0.25}, **report),
        )

    def fail(self, batch, error):
        self.batches.remove(batch)
        self._on_failure(batch, error, "f0")


@pytest.fixture()
def fake_server(fft_prototype):
    """``build(drift=None, backpressure=None, **retry_fields) -> (server,
    fake)``: a started core over a :class:`FakeTransport`, stopped at
    teardown.  ``drift`` is the per-worker drift-detector factory."""
    from repro.serving import (
        BackpressureConfig,
        BatchingConfig,
        RetryConfig,
        RumbaServer,
        ServerConfig,
    )

    servers = []

    def build(drift=None, backpressure=None, **retry):
        server = RumbaServer(
            prototype=fft_prototype,
            config=ServerConfig(
                batching=BatchingConfig(flush_interval_s=0.0),
                backpressure=backpressure or BackpressureConfig(),
                retry=RetryConfig(**retry),
            ),
            **({} if drift is None else {"drift_detector_factory": drift}),
        )
        fake = FakeTransport(server._on_complete, server._retry_or_fail)
        server._transport = fake
        servers.append(server)
        return server.start(), fake

    yield build
    for server in servers:
        server.stop(timeout=1.0)


def _wait_for(condition, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


@pytest.fixture()
def restart_after_relax(fft_prototype, fft_input_pool):
    """``run(journal_path=None) -> (server, later)``: a one-worker process
    server takes one degradation step, serves a batch at it and relaxes
    after that batch; its worker is then SIGKILLed and, once restarted,
    serves three more batches.  ``later`` holds those three as
    ``(ServeResult, the worker's batch report)`` pairs; the server is
    stopped on return."""
    from repro.serving import (
        BatchingConfig,
        JournalConfig,
        RetryConfig,
        RumbaServer,
        ServerConfig,
    )

    def run(journal_path=None):
        server = RumbaServer(
            prototype=fft_prototype.clone_shard(),
            config=ServerConfig(
                backend="process", n_workers=1,
                batching=BatchingConfig(flush_interval_s=0.001),
                retry=RetryConfig(retry_backoff_s=0.01),
                journal=JournalConfig(path=journal_path),
            ),
        )
        x = fft_input_pool[:8]
        later = []
        with server:
            worker = server.pool.workers[0]
            assert server.controller.update(100) == +1
            assert server.submit_wait(x, timeout=60).degraded
            # The batch's report found an empty backlog: one step back.
            _wait_for(lambda: server.controller.level == 0)
            os.kill(worker.process.pid, signal.SIGKILL)
            _wait_for(lambda: worker.restarts >= 1 and worker.alive())
            for _ in range(3):
                result = server.submit_wait(x, timeout=60)
                later.append((result, dict(worker.snapshot)))
        return server, later

    return run
