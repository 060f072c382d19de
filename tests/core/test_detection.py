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

    def test_lifetime_statistics(self):
        module = _oracle_module(0.5)
        module.detect_into(true_errors=np.array([0.9, 0.1]))
        module.detect_into(true_errors=np.array([0.9, 0.9]))
        assert module.total_checks == 4
        assert module.total_fires == 3
        assert module.lifetime_fire_fraction == pytest.approx(0.75)

    def test_checker_kind_follows_predictor(self, rng):
        predictor = LinearErrorPredictor().fit(rng.random((20, 3)), rng.random(20))
        module = DetectionModule(predictor, threshold=0.1, n_inputs=3)
        assert module.checker.kind == "linear"
        assert module.checker.n_inputs == 3

    def test_oracle_has_free_checker(self):
        module = _oracle_module()
        assert module.check_energy_pj(1000) == 0.0
        assert module.check_cycles_per_element() == 0.0

    def test_linear_checker_energy_scales(self, rng):
        predictor = LinearErrorPredictor().fit(rng.random((20, 3)), rng.random(20))
        module = DetectionModule(predictor, threshold=0.1, n_inputs=3)
        assert module.check_energy_pj(100) == pytest.approx(
            100 * module.checker.check_energy_pj()
        )

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
    """A caller-owned ``bits_out`` buffer receives the same bits a fresh
    vector would."""

    def test_bits_out_buffer_is_used(self):
        module = _oracle_module(0.5)
        errors = np.array([0.1, 0.9, 0.6, 0.2])
        bits = np.ones(4, dtype=bool)
        result = module.detect_into(true_errors=errors, bits_out=bits)
        assert result.recovery_bits is bits
        np.testing.assert_array_equal(bits, [False, True, True, False])

    def test_bits_out_shape_and_dtype_validated(self):
        module = _oracle_module(0.5)
        errors = np.array([0.1, 0.9])
        with pytest.raises(ConfigurationError, match="bits_out"):
            module.detect_into(
                true_errors=errors, bits_out=np.zeros(3, dtype=bool)
            )
        with pytest.raises(ConfigurationError, match="bits_out"):
            module.detect_into(
                true_errors=errors, bits_out=np.zeros(2, dtype=float)
            )

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
        bits = np.zeros(4, dtype=bool)
        module.detect_into(
            true_errors=np.array([0.1, np.nan, 0.2, np.inf]), bits_out=bits
        )
        np.testing.assert_array_equal(bits, [False, True, False, True])
