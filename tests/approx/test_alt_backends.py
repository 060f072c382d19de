"""Tests for the Sec. 4 alternative accelerator substrates.

The ``extension.alt_accelerators`` fidelity row builds both substrates as
``(features, approximate)`` function pairs in :mod:`repro.eval.fidelity`;
these are the properties the row relies on.
"""

import numpy as np
import pytest

from repro.apps import get_application
from repro.eval.fidelity import (
    _analog_datapath,
    _calibrated_ranges,
    _quantized_datapath,
)


@pytest.fixture(scope="module")
def ik2j_app():
    return get_application("inversek2j")


@pytest.fixture(scope="module")
def ik2j_inputs(ik2j_app):
    rng = np.random.default_rng(2)
    return ik2j_app.test_inputs(rng)[:1000]


class TestQuantizedKernelBackend:
    def test_errors_nonzero_but_bounded(self, ik2j_app, ik2j_inputs):
        _, approximate = _quantized_datapath(ik2j_app, 0, bits=6)
        approx = approximate(ik2j_inputs)
        exact = ik2j_app.exact(ik2j_inputs)
        err = ik2j_app.output_error(approx, exact)
        assert 0.0 < err < 0.5

    def test_more_bits_less_error(self, ik2j_app, ik2j_inputs):
        exact = ik2j_app.exact(ik2j_inputs)
        _, coarse = _quantized_datapath(ik2j_app, 0, bits=4)
        _, fine = _quantized_datapath(ik2j_app, 0, bits=10)
        assert ik2j_app.output_error(fine(ik2j_inputs), exact) < (
            ik2j_app.output_error(coarse(ik2j_inputs), exact)
        )

    def test_deterministic(self, ik2j_app, ik2j_inputs):
        features, approximate = _quantized_datapath(ik2j_app, 0)
        np.testing.assert_array_equal(
            approximate(ik2j_inputs), approximate(ik2j_inputs)
        )
        np.testing.assert_array_equal(
            features(ik2j_inputs), _quantized_datapath(ik2j_app, 0)[0](ik2j_inputs)
        )

    def test_outputs_on_quantization_grid(self, ik2j_app, ik2j_inputs):
        # ``bits`` bits -> at most 2**bits distinct levels per column, on
        # the inputs the checker sees and on the outputs alike.
        for bits in (4, 5):
            features, approximate = _quantized_datapath(ik2j_app, 0, bits=bits)
            for values in (features(ik2j_inputs), approximate(ik2j_inputs)):
                for col in range(values.shape[1]):
                    levels = np.unique(np.round(values[:, col], 9))
                    assert levels.size <= 2 ** bits

    def test_detection_reduces_quantization_errors(self, ik2j_app,
                                                   ik2j_inputs):
        """The full Rumba recipe on a non-NPU accelerator: train the tree
        checker on this substrate's errors and fix the flagged elements."""
        from repro.metrics.analysis import error_vs_fixed_curve
        from repro.predictors.tree import DecisionTreeErrorPredictor

        features, approximate = _quantized_datapath(ik2j_app, 0, bits=5)
        rng = np.random.default_rng(9)
        train = ik2j_app.train_inputs(rng)[:2000]
        train_errors = ik2j_app.element_errors(
            approximate(train), ik2j_app.exact(train)
        )
        predictor = DecisionTreeErrorPredictor().fit(
            features(train), train_errors
        )
        test_errors = ik2j_app.element_errors(
            approximate(ik2j_inputs), ik2j_app.exact(ik2j_inputs)
        )
        scores = predictor.scores(features=features(ik2j_inputs))
        curve = error_vs_fixed_curve(scores, test_errors, [0.0, 0.3])
        rng2 = np.random.default_rng(10)
        random_curve = error_vs_fixed_curve(
            rng2.random(test_errors.size), test_errors, [0.0, 0.3]
        )
        assert curve[1] < curve[0]             # fixing helps
        assert curve[1] < random_curve[1]      # and beats blind fixing


class TestNoisyAnalogBackend:
    def test_errors_stochastic(self, ik2j_app, ik2j_inputs):
        _, approximate = _analog_datapath(ik2j_app, 0, noise_fraction=0.05)
        a = approximate(ik2j_inputs)
        b = approximate(ik2j_inputs)
        assert not np.array_equal(a, b)  # analog noise varies per run

    def test_noise_scales_error(self, ik2j_app, ik2j_inputs):
        exact = ik2j_app.exact(ik2j_inputs)
        _, quiet = _analog_datapath(ik2j_app, 0, noise_fraction=0.01)
        _, loud = _analog_datapath(ik2j_app, 0, noise_fraction=0.15)
        assert ik2j_app.output_error(loud(ik2j_inputs), exact) > (
            ik2j_app.output_error(quiet(ik2j_inputs), exact)
        )

    def test_saturation_at_rails(self, ik2j_app, ik2j_inputs):
        _, _, lo, hi = _calibrated_ranges(ik2j_app, 0)
        for noise_fraction in (0.04, 0.3):
            _, approximate = _analog_datapath(ik2j_app, 0, noise_fraction)
            out = approximate(ik2j_inputs)
            assert np.all(out >= lo) and np.all(out <= hi)
        # The loud datapath really drives some outputs onto a rail.
        assert ((out == lo) | (out == hi)).any()
