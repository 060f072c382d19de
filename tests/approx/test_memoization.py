"""Tests for fuzzy memoization with quality management."""

import numpy as np
import pytest

from repro.apps import get_application
from repro.approx.memoization import MemoizationQualityManager, MemoizingBackend
from repro.errors import ConfigurationError, NotFittedError


@pytest.fixture(scope="module")
def ik2j_app():
    return get_application("inversek2j")


class TestMemoizingBackend:
    def test_first_pass_all_misses_exact(self, ik2j_app):
        backend = MemoizingBackend(ik2j_app, key_bits=4)
        rng = np.random.default_rng(0)
        x = ik2j_app.test_inputs(rng)[:200]
        out = backend(x)
        # Unique keys computed exactly; duplicates within the batch may hit.
        exact = ik2j_app.exact(x)
        miss_rows = backend.last_distances == 0.0
        np.testing.assert_allclose(out[miss_rows], exact[miss_rows])

    def test_repeat_batch_hits(self, ik2j_app):
        backend = MemoizingBackend(ik2j_app, key_bits=4)
        rng = np.random.default_rng(1)
        x = ik2j_app.test_inputs(rng)[:300]
        backend(x)
        misses_before = backend.misses
        backend(x)  # identical inputs: every key hits
        assert backend.misses == misses_before
        assert backend.hit_rate > 0.4

    def test_hits_carry_distance(self, ik2j_app):
        backend = MemoizingBackend(ik2j_app, key_bits=3)
        rng = np.random.default_rng(2)
        x = ik2j_app.test_inputs(rng)[:500]
        backend(x)
        y = x + 0.01  # nearby queries reuse entries
        backend(y)
        hit_distances = backend.last_distances[backend.last_distances > 0]
        assert hit_distances.size > 0
        assert np.all(hit_distances < 1.0)

    def test_coarser_keys_reuse_more_and_err_more(self, ik2j_app):
        rng = np.random.default_rng(3)
        warm = ik2j_app.test_inputs(rng)[:2000]
        probe = ik2j_app.test_inputs(np.random.default_rng(4))[:1000]
        exact = ik2j_app.exact(probe)
        results = {}
        for bits in (3, 6):
            backend = MemoizingBackend(ik2j_app, key_bits=bits)
            backend(warm)
            out = backend(probe)
            results[bits] = (
                backend.hit_rate,
                ik2j_app.output_error(out, exact),
            )
        assert results[3][0] > results[6][0]   # more reuse
        assert results[3][1] > results[6][1]   # more error

    def test_clear(self, ik2j_app):
        backend = MemoizingBackend(ik2j_app, key_bits=4)
        rng = np.random.default_rng(5)
        backend(ik2j_app.test_inputs(rng)[:50])
        backend.reset_state()
        assert backend.hits == 0 and backend.misses == 0
        assert backend.hit_rate == 0.0

    def test_key_bits_validated(self, ik2j_app):
        with pytest.raises(ConfigurationError):
            MemoizingBackend(ik2j_app, key_bits=0)
        with pytest.raises(ConfigurationError):
            MemoizingBackend(ik2j_app, key_bits=16)


class TestMemoizationQualityManager:
    @pytest.fixture(scope="class")
    def manager(self, ik2j_app):
        return MemoizationQualityManager(
            ik2j_app, key_bits=3, threshold=0.03, seed=0
        ).fit(n_train=3000)

    def test_requires_fit(self, ik2j_app):
        with pytest.raises(NotFittedError):
            MemoizationQualityManager(ik2j_app).process(np.zeros((2, 2)))

    def test_recovery_reduces_error(self, manager, ik2j_app):
        rng = np.random.default_rng(6)
        probe = ik2j_app.test_inputs(rng)[:2000]
        outcome = manager.process(probe)
        managed_err = ik2j_app.output_error(outcome.outputs, outcome.exact)
        # Re-run the same inputs through the raw backend for the baseline.
        raw = manager.backend(probe)
        raw_err = ik2j_app.output_error(raw, outcome.exact)
        assert managed_err <= raw_err
        assert 0.0 <= outcome.recovered_fraction <= 1.0

    def test_recovered_rows_exact(self, manager, ik2j_app):
        rng = np.random.default_rng(7)
        probe = ik2j_app.test_inputs(rng)[:500]
        outcome = manager.process(probe)
        np.testing.assert_allclose(
            outcome.outputs[outcome.recovered],
            outcome.exact[outcome.recovered],
        )

    def test_distance_feature_is_informative(self, manager, ik2j_app):
        """Cache distance correlates with true memoization error."""
        rng = np.random.default_rng(8)
        probe = ik2j_app.test_inputs(rng)[:3000]
        approx = manager.backend(probe)
        distances = manager.backend.last_distances
        errors = ik2j_app.element_errors(approx, ik2j_app.exact(probe))
        hit = distances > 0
        if hit.sum() > 50:
            corr = np.corrcoef(distances[hit], errors[hit])[0, 1]
            assert corr > 0.2
