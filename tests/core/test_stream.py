"""Tests for the streaming wrapper and drift detection."""

import numpy as np
import pytest

from repro.apps.fft import generate_fractions
from repro.core import prepare_system
from repro.core.stream import DriftDetector, QualityManagedStream
from repro.errors import ConfigurationError


class TestDriftDetector:
    def test_no_flag_during_calibration(self):
        detector = DriftDetector(calibration_invocations=5)
        for _ in range(4):
            assert not detector.observe(0.2)
        assert not detector.is_calibrated or detector.reference_mean is None

    def test_calibrates_then_accepts_stable_rates(self):
        detector = DriftDetector(calibration_invocations=5, min_band=0.05)
        for _ in range(5):
            detector.observe(0.2)
        assert detector.is_calibrated
        for _ in range(10):
            assert not detector.observe(0.22)

    def test_flags_large_shift(self):
        detector = DriftDetector(calibration_invocations=5, min_band=0.05,
                                 smoothing=0.5)
        for _ in range(5):
            detector.observe(0.1)
        flagged = any(detector.observe(0.8) for _ in range(10))
        assert flagged

    def test_reset_recalibrates(self):
        detector = DriftDetector(calibration_invocations=3)
        for _ in range(3):
            detector.observe(0.1)
        detector.reset()
        assert not detector.is_calibrated
        assert not detector.observe(0.9)  # back in calibration

    def test_smoothing_damps_single_spikes(self):
        detector = DriftDetector(calibration_invocations=5, min_band=0.1,
                                 smoothing=0.1)
        for _ in range(5):
            detector.observe(0.2)
        assert not detector.observe(0.9)  # one outlier is absorbed

    def test_validations(self):
        with pytest.raises(ConfigurationError):
            DriftDetector(calibration_invocations=1)
        with pytest.raises(ConfigurationError):
            DriftDetector(tolerance_sigmas=0)
        with pytest.raises(ConfigurationError):
            DriftDetector(smoothing=0.0)
        detector = DriftDetector()
        with pytest.raises(ConfigurationError):
            detector.observe(1.5)


class TestDriftDetectorEdges:
    """Boundary configurations the serving layer exercises."""

    def test_minimum_calibration_window_of_two(self):
        detector = DriftDetector(
            calibration_invocations=2, tolerance_sigmas=1.0,
            min_band=0.01, max_band=0.05, smoothing=1.0,
        )
        assert not detector.observe(0.10)
        assert not detector.is_calibrated
        assert not detector.observe(0.12)
        assert detector.is_calibrated
        assert detector.reference_mean == pytest.approx(0.11)
        # Below 2 the spread is undefined; the constructor refuses it.
        with pytest.raises(ConfigurationError):
            DriftDetector(calibration_invocations=1)

    def test_band_clamped_to_min_band(self):
        # Identical calibration rates give zero spread; the band must
        # clamp up to min_band instead of flagging on any wiggle.
        detector = DriftDetector(
            calibration_invocations=3, tolerance_sigmas=4.0,
            min_band=0.05, max_band=0.25,
        )
        for _ in range(3):
            detector.observe(0.2)
        assert detector.reference_band == pytest.approx(0.05)
        assert not detector.observe(0.22)  # inside the clamped band

    def test_band_clamped_to_max_band(self):
        # Wildly noisy calibration would produce a band so wide nothing
        # ever flags; max_band caps it.
        detector = DriftDetector(
            calibration_invocations=4, tolerance_sigmas=10.0,
            min_band=0.05, max_band=0.10,
        )
        for rate in (0.0, 1.0, 0.0, 1.0):
            detector.observe(rate)
        assert detector.reference_band == pytest.approx(0.10)
        # Mean is 0.5; a sustained rate beyond mean+max_band flags even
        # though the raw sigma band would have swallowed it.
        flagged = False
        for _ in range(20):
            flagged = detector.observe(0.95) or flagged
        assert flagged

    def test_smoothing_of_one_tracks_instantaneously(self):
        # smoothing=1.0 is the no-memory boundary: the smoothed rate IS
        # the last observation, so one spike outside the band flags and
        # one return inside the band clears.
        detector = DriftDetector(
            calibration_invocations=2, tolerance_sigmas=1.0,
            min_band=0.05, max_band=0.10, smoothing=1.0,
        )
        detector.observe(0.2)
        detector.observe(0.2)
        assert detector.observe(0.9)
        assert not detector.observe(0.2)

    def test_smoothing_above_one_rejected(self):
        with pytest.raises(ConfigurationError):
            DriftDetector(smoothing=1.2)
        with pytest.raises(ConfigurationError):
            DriftDetector(smoothing=0.0)


class TestQualityManagedStream:
    @pytest.fixture(scope="class")
    def system(self):
        return prepare_system("fft", scheme="treeErrors", seed=0)

    def test_stable_stream_never_flags(self, system):
        system.records.clear()
        stream = QualityManagedStream(
            system, DriftDetector(calibration_invocations=4, min_band=0.08)
        )
        rng = np.random.default_rng(5)
        for _ in range(12):
            stream.feed(generate_fractions(rng, 400))
        assert not stream.needs_retraining
        status = stream.status()
        assert status.n_invocations == 12
        assert not status.drifted

    def test_input_drift_flags_retraining(self, system):
        """Shift the input population outside the training range: the
        checker's fire rate moves and the stream demands retraining."""
        system.records.clear()
        stream = QualityManagedStream(
            system,
            DriftDetector(calibration_invocations=4, min_band=0.08,
                          smoothing=0.5),
        )
        rng = np.random.default_rng(6)
        for _ in range(6):
            stream.feed(generate_fractions(rng, 400))
        # Drift: fractions concentrate where the accelerator is accurate,
        # collapsing the fire rate far below the calibrated band.
        for _ in range(10):
            drifted_inputs = 0.02 * rng.random(400).reshape(-1, 1)
            stream.feed(drifted_inputs)
        assert stream.needs_retraining

    def test_acknowledge_clears_flag(self, system):
        system.records.clear()
        stream = QualityManagedStream(
            system, DriftDetector(calibration_invocations=2, min_band=0.01,
                                  smoothing=1.0)
        )
        rng = np.random.default_rng(7)
        stream.feed(generate_fractions(rng, 300))
        stream.feed(generate_fractions(rng, 300))
        stream.drift.flags = 1  # simulate a flag
        assert stream.needs_retraining
        stream.acknowledge_retraining()
        assert not stream.needs_retraining
        assert not stream.drift.is_calibrated

    def test_status_requires_traffic(self, system):
        stream = QualityManagedStream(system)
        with pytest.raises(ConfigurationError):
            stream.status()

    def test_window_validated(self, system):
        with pytest.raises(ConfigurationError):
            QualityManagedStream(system, window=0)
