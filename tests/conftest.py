"""Shared fixtures.

Heavy artifacts (trained accelerator backends, benchmark evaluations) are
session-scoped and built on the cheapest benchmarks so the suite stays
fast while still exercising real trained networks.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.apps import get_application
from repro.approx import train_npu_backend
from repro.eval import evaluate_benchmark
from repro.nn.trainer import RPropTrainer
from repro.predictors import collect_training_data


def _mask():
    getaffinity = getattr(os, "sched_getaffinity", None)
    return getaffinity(0) if getaffinity is not None else None


def _check_no_leaked_hold(before, what: str) -> None:
    """Fail ``what`` if it left the pytest thread's CPU mask changed (a
    thread server's CPU hold, ``repro.serving.cpuhold``, that no stop()
    released), then give the thread its mask back so later tests and the
    processes they spawn run unheld."""
    after = _mask()
    if after == before:
        return
    os.sched_setaffinity(0, before)
    pytest.fail(
        f"{what} left the pytest thread on CPUs {sorted(after)} "
        f"(was {sorted(before)}): a thread server was not stopped",
        pytrace=False,
    )


@pytest.fixture(autouse=True)
def no_leaked_cpu_hold(request):
    """A test that starts a thread server and never stops it fails here,
    after its own fixtures are torn down.  Module- and session-scoped
    fixtures are set up before this one and torn down after it, so a
    server they hold is checked when their scope ends (below)."""
    before = _mask()
    yield
    _check_no_leaked_hold(before, request.node.nodeid)


@pytest.fixture(scope="module", autouse=True)
def no_leaked_cpu_hold_in_module(request):
    before = _mask()
    yield
    _check_no_leaked_hold(before, f"a fixture of {request.node.nodeid}")


@pytest.fixture(scope="session", autouse=True)
def no_leaked_cpu_hold_in_session():
    before = _mask()
    yield
    _check_no_leaked_hold(before, "a session-scoped fixture")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def fft_app():
    return get_application("fft")


@pytest.fixture(scope="session")
def inversek2j_app():
    return get_application("inversek2j")


@pytest.fixture(scope="session")
def fft_backend(fft_app):
    """A quickly-trained Rumba-topology backend for fft."""
    backend, _ = train_npu_backend(
        fft_app,
        trainer=RPropTrainer(max_epochs=400, patience=60, seed=0),
        seed=0,
    )
    return backend


@pytest.fixture(scope="session")
def fft_training_data(fft_app, fft_backend):
    return collect_training_data(fft_app, fft_backend, seed=1, n_cap=2000)


@pytest.fixture(scope="session")
def fft_ensemble(fft_app):
    """The default-spec fft ensemble *prototype* (cached alongside the
    offline backend cache).  Tests must not mutate it: call
    ``clone_shard()`` before routing or learning."""
    from repro.core.offline import prepare_ensemble

    return prepare_ensemble(fft_app, seed=0)


@pytest.fixture(scope="session")
def ik2j_evaluation():
    """Full evaluation material for inversek2j (cheap to train)."""
    return evaluate_benchmark("inversek2j", seed=0, n_test_cap=4000)


@pytest.fixture(scope="session")
def fft_evaluation():
    return evaluate_benchmark("fft", seed=0, n_test_cap=4000)
