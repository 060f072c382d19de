"""Unit and property tests for the feature scaler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import NotFittedError
from repro.nn.scaler import MinMaxScaler

matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 20), st.integers(1, 5)),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestMinMaxScaler:
    def test_maps_to_unit_range(self, rng):
        x = rng.normal(size=(50, 3)) * 10
        scaled = MinMaxScaler().fit_transform(x)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        np.testing.assert_allclose(scaled.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-12)

    def test_custom_range(self, rng):
        x = rng.normal(size=(30, 2))
        scaled = MinMaxScaler((-1.0, 1.0)).fit_transform(x)
        np.testing.assert_allclose(scaled.min(axis=0), -1.0, atol=1e-12)
        np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-12)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            MinMaxScaler((1.0, 1.0))

    def test_constant_column_maps_to_midpoint(self):
        x = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        scaled = MinMaxScaler().fit_transform(x)
        np.testing.assert_allclose(scaled[:, 0], 0.5)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            MinMaxScaler().transform(np.ones((2, 2)))
        with pytest.raises(NotFittedError):
            MinMaxScaler().inverse_transform(np.ones((2, 2)))

    def test_1d_input_treated_as_column(self):
        scaled = MinMaxScaler().fit_transform(np.array([1.0, 2.0, 3.0]))
        assert scaled.shape == (3, 1)

    @settings(max_examples=30, deadline=None)
    @given(matrices)
    def test_roundtrip(self, x):
        scaler = MinMaxScaler().fit(x)
        restored = scaler.inverse_transform(scaler.transform(x))
        np.testing.assert_allclose(restored, x, atol=1e-6, rtol=1e-9)

    def test_transform_new_data_uses_fit_stats(self, rng):
        train = rng.uniform(0, 10, size=(100, 1))
        scaler = MinMaxScaler().fit(train)
        out = scaler.transform(np.array([[20.0]]))
        assert out[0, 0] > 1.0  # out-of-range data extrapolates

