"""Tests for the invocation-stream workload generator."""

import numpy as np
import pytest

from repro.apps import get_application
from repro.apps.workloads import invocation_stream
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def fft_app():
    return get_application("fft")


class TestInvocationStream:
    def test_shapes(self, fft_app):
        chunks = invocation_stream(fft_app, 5, 200, seed=0)
        assert len(chunks) == 5
        for chunk in chunks:
            assert chunk.shape == (200, 1)

    def test_deterministic_per_seed(self, fft_app):
        a = invocation_stream(fft_app, 3, 100, seed=4)
        b = invocation_stream(fft_app, 3, 100, seed=4)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_chunks_differ(self, fft_app):
        chunks = invocation_stream(fft_app, 2, 100, seed=0)
        assert not np.array_equal(chunks[0], chunks[1])

    def test_large_invocations_refill_buffer(self, fft_app):
        chunks = invocation_stream(fft_app, 2, 7000, seed=0)
        assert all(c.shape == (7000, 1) for c in chunks)

    def test_validations(self, fft_app):
        with pytest.raises(ConfigurationError):
            invocation_stream(fft_app, 0, 10)
        with pytest.raises(ConfigurationError):
            invocation_stream(fft_app, 1, 0)


class TestBurstyStream:
    def test_tuner_reacts_to_bursts(self, fft_app):
        """Integration: energy-mode tuning rides through hard bursts."""
        from repro.core import RumbaConfig, TunerMode, prepare_system

        config = RumbaConfig(
            scheme="treeErrors", mode=TunerMode.ENERGY,
            iteration_budget_fraction=0.2, initial_threshold=0.3,
        )
        system = prepare_system("fft", scheme="treeErrors", config=config,
                                seed=0)
        # Hard burst: concentrate inputs where the 1->1->2 net is weakest.
        chunks = [
            0.2 + 0.1 * chunk if (i + 1) % 3 == 0 else chunk
            for i, chunk in enumerate(invocation_stream(fft_app, 12, 300, seed=0))
        ]
        records = system.run_stream(chunks, measure_quality=False)
        fixes = [r.fix_fraction for r in records]
        assert max(fixes) > min(fixes)  # the tuner actually moved
