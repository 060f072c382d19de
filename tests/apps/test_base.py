"""Unit tests for the Application abstraction and error metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.base import (
    Application,
    absolute_errors,
    mean_absolute_diff,
    mean_relative_error,
    mismatch_errors,
    mismatch_fraction,
    relative_errors,
)
from repro.errors import ConfigurationError
from repro.hardware.energy import InstructionMix
from repro.nn.mlp import Topology

outputs = arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 30), st.integers(1, 4)),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


class TestRelativeErrors:
    def test_exact_match_is_zero(self):
        e = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(relative_errors(e, e), [0.0, 0.0])

    def test_scales_with_magnitude(self):
        exact = np.array([[10.0], [100.0]])
        approx = exact + 1.0
        errs = relative_errors(approx, exact)
        assert errs[0] == pytest.approx(0.1)
        assert errs[1] == pytest.approx(0.01)

    def test_epsilon_floors_denominator(self):
        exact = np.array([[0.0]])
        approx = np.array([[1.0]])
        assert relative_errors(approx, exact, epsilon=2.0)[0] == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            relative_errors(np.ones((2, 1)), np.ones((3, 1)))

    def test_mean_metric(self):
        exact = np.array([[1.0], [1.0]])
        approx = np.array([[1.1], [1.3]])
        assert mean_relative_error(approx, exact) == pytest.approx(0.2)

    @settings(max_examples=40, deadline=None)
    @given(outputs)
    def test_nonnegative(self, exact):
        approx = exact + 0.5
        assert np.all(relative_errors(approx, exact) >= 0.0)


class TestMismatchErrors:
    def test_one_hot_decisions(self):
        exact = np.array([[1.0, 0.0], [0.0, 1.0]])
        approx = np.array([[0.8, 0.2], [0.9, 0.1]])  # second flipped
        np.testing.assert_array_equal(mismatch_errors(approx, exact), [0.0, 1.0])

    def test_fraction(self):
        exact = np.array([[1.0, 0.0]] * 4)
        approx = exact.copy()
        approx[0] = [0.0, 1.0]
        assert mismatch_fraction(approx, exact) == pytest.approx(0.25)

    def test_single_column_rounds(self):
        exact = np.array([[1.0], [0.0]])
        approx = np.array([[0.8], [0.4]])
        np.testing.assert_array_equal(mismatch_errors(approx, exact), [0.0, 0.0])

    def test_errors_binary(self):
        rng = np.random.default_rng(0)
        exact = rng.random((20, 2))
        approx = rng.random((20, 2))
        errs = mismatch_errors(approx, exact)
        assert set(np.unique(errs)) <= {0.0, 1.0}


class TestAbsoluteErrors:
    def test_pixel_scale(self):
        exact = np.array([[100.0]])
        approx = np.array([[125.5]])
        assert absolute_errors(approx, exact, scale=255.0)[0] == pytest.approx(0.1)

    def test_mean_over_outputs(self):
        exact = np.zeros((1, 2))
        approx = np.array([[10.0, 30.0]])
        assert absolute_errors(approx, exact, scale=1.0)[0] == pytest.approx(20.0)

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            absolute_errors(np.ones((1, 1)), np.ones((1, 1)), scale=0.0)

    def test_mean_metric(self):
        exact = np.zeros((2, 1))
        approx = np.array([[51.0], [102.0]])
        assert mean_absolute_diff(approx, exact, scale=255.0) == pytest.approx(0.3)


def _dummy_app(**overrides):
    defaults = dict(
        name="dummy",
        domain="Testing",
        kernel=lambda x: x.sum(axis=1, keepdims=True),
        train_inputs=lambda rng: rng.random((10, 2)),
        test_inputs=lambda rng: rng.random((10, 2)),
        rumba_topology=Topology.parse("2->2->1"),
        npu_topology=Topology.parse("2->4->1"),
        metric_name="Mean Relative Error",
        element_error_fn=relative_errors,
        quality_metric_fn=mean_relative_error,
        instruction_mix=InstructionMix(int_ops=5),
    )
    defaults.update(overrides)
    return Application(**defaults)


class TestApplication:
    def test_exact_output_shape(self, rng):
        app = _dummy_app()
        out = app.exact(rng.random((7, 2)))
        assert out.shape == (7, 1)

    def test_exact_rejects_wrong_width(self, rng):
        app = _dummy_app()
        with pytest.raises(ConfigurationError):
            app.exact(rng.random((3, 5)))

    def test_column_count_validated(self):
        with pytest.raises(ConfigurationError, match="columns"):
            _dummy_app(
                rumba_topology=Topology.parse("2->2->1"),
                rumba_input_columns=(0,),
            )

    def test_output_counts_must_agree(self):
        with pytest.raises(ConfigurationError, match="outputs"):
            _dummy_app(npu_topology=Topology.parse("2->4->2"))

    def test_offload_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            _dummy_app(offload_fraction=0.0)
        with pytest.raises(ConfigurationError):
            _dummy_app(offload_fraction=1.5)

    def test_n_kernel_inputs_from_npu_topology(self):
        assert _dummy_app().n_kernel_inputs == 2
