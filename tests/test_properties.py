"""Cross-module property-based tests on the system's core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.detection import DetectionModule
from repro.core.pipeline import max_keepup_fix_fraction, simulate_pipeline
from repro.core.recovery import merge_outputs
from repro.metrics.analysis import (
    error_after_fixes,
    fixes_required_for_quality,
    rank_by_scores,
)
from repro.predictors.oracle import OraclePredictor


def _simulate(bits, *args, **kwargs):
    """``simulate_pipeline`` over a recovery-bits vector."""
    bits = np.asarray(bits, dtype=bool)
    return simulate_pipeline(np.flatnonzero(bits), bits.size, *args, **kwargs)

errors_arrays = arrays(
    dtype=float,
    shape=st.integers(2, 120),
    elements=st.floats(0.0, 2.0, allow_nan=False),
)


class TestDetectionRecoveryInvariants:
    @settings(max_examples=40, deadline=None)
    @given(errors_arrays, st.floats(0.0, 2.0))
    def test_detection_fixes_exactly_above_threshold(self, errors, threshold):
        """Detection + merge leaves exactly the below-threshold errors."""
        module = DetectionModule(OraclePredictor(), threshold=threshold)
        result = module.detect_into(true_errors=errors)
        n = errors.shape[0]
        approx = np.arange(n, dtype=float).reshape(-1, 1)
        exact = approx + errors.reshape(-1, 1)
        merged = merge_outputs(
            approx, exact[result.recovery_bits], np.flatnonzero(result.recovery_bits)
        )
        residual = np.abs(merged - exact).ravel()
        # Fixed elements have zero residual; unfixed retain their errors.
        np.testing.assert_allclose(residual[result.recovery_bits], 0.0)
        # atol absorbs float rounding when errors are denormally small.
        np.testing.assert_allclose(
            residual[~result.recovery_bits], errors[~result.recovery_bits],
            atol=1e-9,
        )
        assert np.all(errors[result.recovery_bits] > threshold)

    @settings(max_examples=40, deadline=None)
    @given(errors_arrays, st.floats(0.01, 0.5))
    def test_fixes_required_achieves_target(self, errors, target):
        """The minimal-prefix search achieves its target and is minimal."""
        scores = errors  # oracle ordering
        n_fixed, achieved = fixes_required_for_quality(scores, errors, target)
        assert achieved <= target + 1e-12
        if n_fixed > 0:
            _, curve = error_after_fixes(scores, errors)
            assert curve[n_fixed - 1] > target  # one fewer would miss

    @settings(max_examples=40, deadline=None)
    @given(errors_arrays)
    def test_oracle_ranking_sorts_errors(self, errors):
        order = rank_by_scores(errors)
        ranked = errors[order]
        assert np.all(np.diff(ranked) <= 1e-12)


class TestPipelineInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(10, 200),
        st.floats(0.05, 0.95),
        st.floats(1.0, 8.0),
    )
    def test_uniform_fixes_below_keepup_never_slow_down(
        self, n, density_scale, speedup
    ):
        """Uniformly spaced fixes at or below 1/speedup keep up."""
        accel, cpu = 1.0, speedup
        limit = max_keepup_fix_fraction(accel, cpu)
        fraction = limit * density_scale
        stride = max(int(np.ceil(1.0 / fraction)), 1)
        bits = np.zeros(n, dtype=bool)
        bits[::stride] = True
        result = _simulate(bits, accel, cpu)
        assert result.cpu_kept_up

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 100), st.floats(1.5, 20.0))
    def test_fixing_everything_serializes(self, n, cpu):
        """100% fixes degenerate to CPU throughput (no overlap benefit)."""
        result = _simulate(np.ones(n, dtype=bool), 1.0, cpu)
        assert result.makespan >= n * cpu

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=80))
    def test_makespan_monotone_in_fix_set(self, bits):
        """Adding a fix never shortens the makespan."""
        bits = np.asarray(bits)
        base = _simulate(bits, 1.0, 3.0)
        if not bits.all():
            more = bits.copy()
            more[int(np.flatnonzero(~bits)[0])] = True
            grown = _simulate(more, 1.0, 3.0)
            assert grown.makespan >= base.makespan - 1e-9


class TestEndToEndQualityInvariant:
    @settings(max_examples=25, deadline=None)
    @given(errors_arrays, st.floats(0.0, 1.0))
    def test_fixing_any_prefix_never_hurts(self, errors, fraction):
        """Output error after fixing any scheme prefix <= unchecked error."""
        rng = np.random.default_rng(0)
        scores = rng.random(errors.shape[0])
        _, curve = error_after_fixes(scores, errors)
        k = int(round(fraction * errors.shape[0]))
        assert curve[k] <= curve[0] + 1e-12
