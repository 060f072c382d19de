"""Unit tests for the detection module."""

import numpy as np
import pytest

from repro.core.detection import DetectionModule
from repro.errors import ConfigurationError
from repro.predictors.oracle import OraclePredictor
from repro.predictors.linear import LinearErrorPredictor


def _oracle_module(threshold=0.5):
    return DetectionModule(OraclePredictor(), threshold=threshold)


class TestDetectionModule:
    def test_fires_above_threshold(self):
        module = _oracle_module(0.5)
        errors = np.array([0.1, 0.6, 0.4, 0.9])
        result = module.detect_into(true_errors=errors)
        np.testing.assert_array_equal(
            result.recovery_bits, [False, True, False, True]
        )
        assert result.n_fired == 2
        assert result.fire_fraction == pytest.approx(0.5)

    def test_threshold_is_strict_greater(self):
        module = _oracle_module(0.5)
        result = module.detect_into(true_errors=np.array([0.5]))
        assert result.n_fired == 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            DetectionModule(OraclePredictor(), threshold=-0.1)

    def test_checker_kind_follows_predictor(self, rng):
        predictor = LinearErrorPredictor().fit(rng.random((20, 3)), rng.random(20))
        module = DetectionModule(predictor, threshold=0.1, n_inputs=3)
        assert module.checker.kind == "linear"
        assert module.checker.n_inputs == 3

    def test_oracle_has_free_checker(self):
        module = _oracle_module()
        assert module.checker.check_energy_pj() == 0.0
        assert module.checker.check_cycles() == 0.0

    def test_nonfinite_scores_always_fire(self):
        """Fault injection: garbage accelerator outputs (NaN/inf scores)
        are flagged for recovery unconditionally."""
        from repro.predictors.base import ErrorPredictor

        class _Passthrough(ErrorPredictor):
            name = "stub"
            checker_kind = "none"
            is_input_based = False
            needs_fit = False

            def scores(self, features=None, approx_outputs=None,
                       true_errors=None):
                return np.asarray(true_errors, dtype=float)

        module = DetectionModule(_Passthrough(), threshold=100.0)
        scores = np.array([0.1, np.nan, 0.2, np.inf])
        result = module.detect_into(true_errors=scores)
        np.testing.assert_array_equal(
            result.recovery_bits, [False, True, False, True]
        )

    def test_threshold_mutable_between_invocations(self):
        module = _oracle_module(0.5)
        errors = np.array([0.3, 0.4])
        assert module.detect_into(true_errors=errors).n_fired == 0
        module.threshold = 0.2
        assert module.detect_into(true_errors=errors).n_fired == 2


class TestDetectInto:
    """Non-finite scores fire whatever the threshold."""

    def test_nonfinite_scores_fire_into_buffer(self):
        from repro.predictors.base import ErrorPredictor

        class _Passthrough(ErrorPredictor):
            name = "stub"
            checker_kind = "none"
            is_input_based = False
            needs_fit = False

            def scores(self, features=None, approx_outputs=None,
                       true_errors=None):
                return np.asarray(true_errors, dtype=float)

        module = DetectionModule(_Passthrough(), threshold=100.0)
        result = module.detect_into(
            true_errors=np.array([0.1, np.nan, 0.2, np.inf])
        )
        np.testing.assert_array_equal(
            result.recovery_bits, [False, True, False, True]
        )
