"""Unit tests for activation functions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.nn.activations import (
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
    get_activation,
)
from tests.nn.reference_trainer import frozen_sigmoid

FINITE = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestSigmoid:
    def test_midpoint(self):
        assert Sigmoid()(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_range(self):
        x = np.linspace(-100, 100, 201)
        y = Sigmoid()(x)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_monotone(self):
        x = np.linspace(-10, 10, 101)
        y = Sigmoid()(x)
        assert np.all(np.diff(y) > 0)

    def test_no_overflow_at_extremes(self):
        y = Sigmoid()(np.array([-1e6, 1e6]))
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(0.0, abs=1e-12)
        assert y[1] == pytest.approx(1.0, abs=1e-12)

    @given(FINITE)
    def test_derivative_matches_finite_difference(self, x):
        act = Sigmoid()
        h = 1e-6
        arr = np.array([x])
        numeric = (act(arr + h) - act(arr - h)) / (2 * h)
        analytic = act.derivative(act(arr))
        assert numeric[0] == pytest.approx(analytic[0], abs=1e-5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # exp(709+)
    def test_both_paths_equal_the_frozen_formula_bit_for_bit(self):
        """The allocating and in-place sigmoids against the trainer
        oracle's formula, compared as raw bits: at and around the clip
        points, at the ends of the float range, on NaN, and on random
        bit patterns."""
        edges = np.array([60.0, -60.0, np.inf, -np.inf, np.nan, -np.nan,
                          1e308, -1e308, 0.0, -0.0, 745.0, -745.0, 709.8])
        x = np.concatenate([
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            np.random.default_rng(0).integers(
                0, 2**64, size=20000, dtype=np.uint64).view(np.float64),
        ])
        want = frozen_sigmoid(x).view(np.uint64)
        assert np.array_equal(Sigmoid()(x).view(np.uint64), want)
        out = np.empty_like(x)
        assert np.array_equal(Sigmoid()(x, out=out).view(np.uint64), want)


class TestTanh:
    def test_odd_function(self):
        x = np.linspace(-5, 5, 21)
        act = Tanh()
        np.testing.assert_allclose(act(-x), -act(x))

    @given(FINITE)
    def test_derivative_matches_finite_difference(self, x):
        act = Tanh()
        h = 1e-6
        arr = np.array([x])
        numeric = (act(arr + h) - act(arr - h)) / (2 * h)
        assert numeric[0] == pytest.approx(act.derivative(act(arr))[0], abs=1e-4)


class TestReLU:
    def test_clamps_negatives(self):
        np.testing.assert_array_equal(
            ReLU()(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0]
        )

    def test_derivative_is_indicator(self):
        act = ReLU()
        out = act(np.array([-1.0, 2.0]))
        np.testing.assert_array_equal(act.derivative(out), [0.0, 1.0])


class TestLinear:
    def test_identity(self):
        x = np.array([-3.0, 0.5])
        np.testing.assert_array_equal(Linear()(x), x)

    def test_unit_derivative(self):
        np.testing.assert_array_equal(
            Linear().derivative(np.array([5.0, -2.0])), [1.0, 1.0]
        )


class TestOutParameter:
    """Every activation's in-place path must match its allocating path
    bit-for-bit, including ``out is x`` (the fused forward's usage)."""

    @pytest.mark.parametrize(
        "act", [Sigmoid(), Tanh(), ReLU(), Linear()],
        ids=lambda a: a.name,
    )
    def test_out_buffer_matches(self, act):
        x = np.linspace(-80, 80, 163)
        expected = act(x)
        out = np.full_like(x, np.nan)
        result = act(x, out=out)
        assert result is out
        np.testing.assert_array_equal(result, expected)

    @pytest.mark.parametrize(
        "act", [Sigmoid(), Tanh(), ReLU(), Linear()],
        ids=lambda a: a.name,
    )
    def test_in_place_on_input(self, act):
        x = np.linspace(-80, 80, 163)
        expected = act(x)
        work = x.copy()
        result = act(work, out=work)
        assert result is work
        np.testing.assert_array_equal(result, expected)


class TestRegistry:
    @pytest.mark.parametrize("name", ["sigmoid", "tanh", "relu", "linear"])
    def test_lookup(self, name):
        assert get_activation(name).name == name

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown activation"):
            get_activation("softmax")
