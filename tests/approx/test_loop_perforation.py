"""Unit and property tests for loop perforation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.loop_perforation import perforated_mean, perforation_mask
from repro.errors import ConfigurationError


class TestPerforationMask:
    def test_zero_skip_keeps_everything(self):
        assert perforation_mask(10, 0.0).all()

    def test_uniform_is_strided(self):
        mask = perforation_mask(12, 0.75, mode="uniform")
        np.testing.assert_array_equal(np.flatnonzero(mask), [0, 4, 8])

    def test_random_keeps_expected_count(self, rng):
        mask = perforation_mask(1000, 0.9, mode="random", rng=rng)
        assert mask.sum() == 100

    def test_at_least_one_survives(self, rng):
        assert perforation_mask(5, 0.99, mode="random", rng=rng).sum() >= 1
        assert perforation_mask(5, 0.99, mode="uniform").sum() >= 1

    def test_validations(self):
        with pytest.raises(ConfigurationError):
            perforation_mask(0, 0.5)
        with pytest.raises(ConfigurationError):
            perforation_mask(10, 1.0)
        with pytest.raises(ConfigurationError):
            perforation_mask(10, -0.1)
        with pytest.raises(ConfigurationError):
            perforation_mask(10, 0.5, mode="zigzag")
        with pytest.raises(ConfigurationError):
            perforation_mask(10, 0.5, mode="random")  # rng missing

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 500), st.floats(0.0, 0.99))
    def test_mask_properties(self, n, skip):
        mask = perforation_mask(n, skip, mode="uniform")
        assert mask.shape == (n,)
        assert mask.sum() >= 1
        assert mask[0]  # the first iteration always executes


class TestPerforatedReductions:
    def test_mean_exact_when_nothing_skipped(self, rng):
        values = rng.normal(size=100)
        assert perforated_mean(values, 0.0) == pytest.approx(values.mean())

    def test_mean_unbiased_on_random_data(self, rng):
        values = rng.normal(10.0, 1.0, size=10000)
        approx = perforated_mean(values, 0.9, mode="random", rng=rng)
        assert approx == pytest.approx(10.0, abs=0.2)

    def test_uniform_biased_on_aliased_signal(self):
        """Strided sampling aliases periodic data — the Fig. 3 mechanism."""
        n = 1000
        stride_signal = np.zeros(n)
        stride_signal[::10] = 100.0  # period matches the keep stride
        approx = perforated_mean(stride_signal, 0.9, mode="uniform")
        exact = stride_signal.mean()
        assert abs(approx - exact) > 10 * exact / 100
