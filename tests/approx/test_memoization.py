"""Tests for fuzzy memoization, the serving ensemble's ``memo`` member."""

import numpy as np
import pytest

from repro.apps import get_application
from repro.approx.memoization import MemoizingBackend
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def ik2j_app():
    return get_application("inversek2j")


class TestMemoizingBackend:
    def test_first_pass_all_misses_exact(self, ik2j_app):
        backend = MemoizingBackend(ik2j_app, key_bits=4)
        rng = np.random.default_rng(0)
        x = ik2j_app.test_inputs(rng)[:200]
        out = backend(x)
        # A cold table installs a batch's entries only after the batch,
        # so even rows sharing a key compute exactly.
        assert (backend.hits, backend.misses) == (0, x.shape[0])
        np.testing.assert_allclose(out, ik2j_app.exact(x))

    def test_repeat_batch_hits(self, ik2j_app):
        backend = MemoizingBackend(ik2j_app, key_bits=4)
        rng = np.random.default_rng(1)
        x = ik2j_app.test_inputs(rng)[:300]
        backend(x)
        misses_before = backend.misses
        backend(x)  # identical inputs: every key hits
        assert backend.misses == misses_before
        assert backend.hit_rate > 0.4

    def test_nearby_queries_reuse_entries(self, ik2j_app):
        backend = MemoizingBackend(ik2j_app, key_bits=3)
        rng = np.random.default_rng(2)
        x = ik2j_app.test_inputs(rng)[:500]
        backend(x)
        hits_before = backend.hits
        y = x + 0.01  # nearby queries reuse entries
        out = backend(y)
        assert backend.hits > hits_before
        # A reused row is the output of an earlier, different input.
        assert not np.allclose(out, ik2j_app.exact(y))

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

    def test_key_bits_validated(self, ik2j_app):
        with pytest.raises(ConfigurationError):
            MemoizingBackend(ik2j_app, key_bits=0)
        with pytest.raises(ConfigurationError):
            MemoizingBackend(ik2j_app, key_bits=16)
