"""Unit tests for the online tuner (Sec. 3.4)."""

import numpy as np
import pytest

from repro.core.config import RumbaConfig, TunerMode
from repro.core.tuner import DEGRADE_FACTOR, InvocationFeedback, OnlineTuner
from repro.errors import ConfigurationError


def _tuner(mode, **kwargs):
    return OnlineTuner(RumbaConfig(mode=mode, **kwargs))


class TestTOQMode:
    def test_threshold_is_error_budget(self):
        tuner = _tuner(TunerMode.TOQ, target_output_quality=0.9)
        assert tuner.threshold == pytest.approx(0.10)

    def test_threshold_fixed_across_invocations(self):
        tuner = _tuner(TunerMode.TOQ)
        before = tuner.threshold
        tuner.update(InvocationFeedback(fix_fraction=0.9))
        tuner.update(InvocationFeedback(fix_fraction=0.0))
        assert tuner.threshold == before


class TestEnergyMode:
    def test_over_budget_raises_threshold(self):
        tuner = _tuner(TunerMode.ENERGY, iteration_budget_fraction=0.2)
        before = tuner.threshold
        tuner.update(InvocationFeedback(fix_fraction=0.5))
        assert tuner.threshold > before

    def test_under_budget_lowers_threshold(self):
        tuner = _tuner(TunerMode.ENERGY, iteration_budget_fraction=0.2)
        before = tuner.threshold
        tuner.update(InvocationFeedback(fix_fraction=0.05))
        assert tuner.threshold < before

    def test_converges_toward_budget(self):
        """With fix fraction a decreasing function of threshold, the tuner
        oscillates into a band around the budget."""
        config = RumbaConfig(
            mode=TunerMode.ENERGY, iteration_budget_fraction=0.3,
            initial_threshold=1.0, threshold_gain=1.1,
        )
        tuner = OnlineTuner(config)

        def fix_fraction(threshold):
            return max(0.0, min(1.0, 1.0 - threshold))

        for _ in range(60):
            tuner.update(InvocationFeedback(fix_fraction(tuner.threshold)))
        assert fix_fraction(tuner.threshold) == pytest.approx(0.3, abs=0.1)

    def test_threshold_never_nonpositive(self):
        tuner = _tuner(TunerMode.ENERGY, initial_threshold=1e-8)
        for _ in range(50):
            tuner.update(InvocationFeedback(fix_fraction=0.0))
        assert tuner.threshold > 0.0


class TestQualityMode:
    def test_falling_behind_raises_threshold(self):
        tuner = _tuner(TunerMode.QUALITY)
        before = tuner.threshold
        tuner.update(InvocationFeedback(fix_fraction=0.5, cpu_kept_up=False))
        assert tuner.threshold > before

    def test_idle_cpu_lowers_threshold(self):
        tuner = _tuner(TunerMode.QUALITY)
        before = tuner.threshold
        tuner.update(
            InvocationFeedback(fix_fraction=0.1, cpu_kept_up=True,
                               cpu_utilization=0.2)
        )
        assert tuner.threshold < before

    def test_saturated_cpu_holds_threshold(self):
        tuner = _tuner(TunerMode.QUALITY)
        before = tuner.threshold
        tuner.update(
            InvocationFeedback(fix_fraction=0.3, cpu_kept_up=True,
                               cpu_utilization=0.99)
        )
        assert tuner.threshold == before


class TestBackpressureDegradation:
    """threshold_at(level) — the serving layer's overload lever (works in
    every mode, including TOQ where update() holds the threshold fixed).
    The tuner never holds a degraded value."""

    def test_degrade_scales_threshold_and_tracks_level(self):
        tuner = _tuner(TunerMode.TOQ, target_output_quality=0.9)
        before = tuner.threshold
        assert tuner.threshold_at(1) == pytest.approx(before * 1.5)
        assert tuner.threshold_at(2) == pytest.approx(before * 1.5 ** 2)
        assert tuner.threshold_at(2) == before * DEGRADE_FACTOR ** 2
        assert tuner.threshold == before
        assert list(tuner.history) == [before]

    def test_relax_is_symmetric(self):
        """Level 0 is the tuner's own threshold, bit for bit, after any
        walk of levels interleaved with the tuner's own moves."""
        rng = np.random.default_rng(0)
        for mode in TunerMode:
            for toq in (0.85, 0.9, 0.99):
                tuner = _tuner(mode, target_output_quality=toq)
                level = 0
                for _ in range(200):
                    level = int(np.clip(level + rng.choice([-1, 1]), 0, 8))
                    assert tuner.threshold_at(level) > 0
                    tuner.update(InvocationFeedback(
                        fix_fraction=float(rng.random()),
                        cpu_kept_up=bool(rng.random() < 0.5),
                    ))
                    assert tuner.threshold_at(0) == tuner.threshold

    def test_relax_at_level_zero_is_noop(self):
        tuner = _tuner(TunerMode.QUALITY)
        before = tuner.threshold
        assert tuner.threshold_at(0) == before
        assert tuner.threshold == before
        assert list(tuner.history) == [before]


class TestTunerGeneral:
    def test_history_recorded(self):
        tuner = _tuner(TunerMode.ENERGY)
        tuner.update(InvocationFeedback(fix_fraction=1.0))
        tuner.update(InvocationFeedback(fix_fraction=0.0))
        assert len(tuner.history) == 3  # initial + 2 updates

    def test_invalid_feedback(self):
        tuner = _tuner(TunerMode.ENERGY)
        with pytest.raises(ConfigurationError):
            tuner.update(InvocationFeedback(fix_fraction=1.5))
