"""Unit and property tests for recovery, the output merger and purity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recovery import (
    RecoveryModule,
    merge_outputs,
    verify_purity,
)
from repro.errors import ConfigurationError, PurityError


def double_kernel(x):
    return np.asarray(x) * 2.0


class TestMergeOutputs:
    def test_exact_rows_replace_approx(self):
        approx = np.zeros((4, 2))
        exact = np.array([[1.0, 1.0], [2.0, 2.0]])
        merged = merge_outputs(approx, exact, np.array([1, 3]))
        np.testing.assert_array_equal(merged[0], [0.0, 0.0])
        np.testing.assert_array_equal(merged[1], [1.0, 1.0])
        np.testing.assert_array_equal(merged[3], [2.0, 2.0])

    def test_original_untouched(self):
        approx = np.zeros((3, 1))
        merged = merge_outputs(approx, np.ones((1, 1)), np.array([0]))
        assert approx[0, 0] == 0.0
        assert merged[0, 0] == 1.0

    def test_empty_recovery_set(self):
        approx = np.ones((3, 1))
        merged = merge_outputs(approx, np.empty((0, 1)), np.empty(0, dtype=int))
        np.testing.assert_array_equal(merged, approx)

    def test_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            merge_outputs(np.ones((3, 1)), np.ones((2, 1)), np.array([0]))

    def test_index_out_of_range(self):
        with pytest.raises(ConfigurationError):
            merge_outputs(np.ones((3, 1)), np.ones((1, 1)), np.array([5]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=50))
    def test_merge_equals_where_property(self, bits):
        bits = np.asarray(bits)
        n = bits.shape[0]
        approx = np.zeros((n, 1))
        indices = np.flatnonzero(bits)
        exact = np.ones((indices.size, 1))
        merged = merge_outputs(approx, exact, indices)
        np.testing.assert_array_equal(merged[:, 0], bits.astype(float))


class TestRecoveryModule:
    def test_recovers_flagged_iterations(self):
        module = RecoveryModule(double_kernel)
        inputs = np.array([[1.0], [2.0], [3.0]])
        approx = np.array([[9.0], [9.0], [9.0]])
        bits = np.array([True, False, True])
        result = module.recover(inputs, approx, bits)
        np.testing.assert_array_equal(result.merged_outputs[:, 0], [2.0, 9.0, 6.0])
        assert result.n_recovered == 2
        assert result.recovered_fraction == pytest.approx(2 / 3)

    def test_no_flags_returns_approx_uncopied(self):
        module = RecoveryModule(double_kernel)
        inputs = np.array([[1.0]])
        approx = np.array([[5.0]])
        result = module.recover(inputs, approx, np.array([False]))
        assert result.n_recovered == 0
        np.testing.assert_array_equal(result.merged_outputs, approx)
        # Zero-copy contract: a clean batch hands back the approximate
        # outputs themselves (outputs are immutable downstream).
        assert result.merged_outputs is approx

    def test_bit_count_must_match(self):
        module = RecoveryModule(double_kernel)
        with pytest.raises(ConfigurationError):
            module.recover(np.ones((3, 1)), np.ones((3, 1)), np.array([True]))

    def test_impure_kernel_rejected(self):
        state = {"calls": 0}

        def impure(x):
            state["calls"] += 1
            return np.asarray(x) + state["calls"]

        module = RecoveryModule(impure, verify=True)
        with pytest.raises(PurityError):
            module.recover(
                np.ones((2, 1)), np.ones((2, 1)), np.array([True, False])
            )

    def test_verification_can_be_disabled(self):
        state = {"calls": 0}

        def impure(x):
            state["calls"] += 1
            return np.asarray(x) + state["calls"]

        module = RecoveryModule(impure, verify=False)
        result = module.recover(
            np.ones((2, 1)), np.ones((2, 1)), np.array([True, False])
        )
        assert result.n_recovered == 1


class TestVerifyPurity:
    def test_pure_kernel_passes(self):
        assert verify_purity(double_kernel, np.ones((4, 1))) is None

    def test_nondeterministic_detected(self):
        rng = np.random.default_rng(0)

        def noisy(x):
            return np.asarray(x) + rng.normal(size=np.asarray(x).shape)

        with pytest.raises(PurityError, match="different outputs"):
            verify_purity(noisy, np.ones((4, 1)))

    def test_input_mutation_detected(self):
        def mutating(x):
            x += 1.0
            return x * 2.0

        with pytest.raises(PurityError, match="mutated"):
            verify_purity(mutating, np.ones((4, 1)))
