"""Unit tests for the Green/SAGE-style quality-sampling baseline."""

import numpy as np
import pytest

from repro.core.sampling_monitor import QualitySamplingMonitor
from repro.errors import ConfigurationError


def _missed_bad(report):
    """Bad invocations that sailed through unchecked (the paper's
    Challenge II failure mode)."""
    bad = report.errors_before > report.target_error
    return int((bad & ~report.checked).sum())


class TestQualitySamplingMonitor:
    def test_checks_every_nth(self):
        monitor = QualitySamplingMonitor(check_every_n=3, target_error=0.1)
        report = monitor.process_stream(np.zeros(9))
        np.testing.assert_array_equal(
            np.flatnonzero(report.checked), [0, 3, 6]
        )
        assert report.n_checked == 3

    def test_phase_shifts_the_checks(self):
        monitor = QualitySamplingMonitor(check_every_n=4, target_error=0.1,
                                         phase=2)
        report = monitor.process_stream(np.zeros(8))
        np.testing.assert_array_equal(np.flatnonzero(report.checked), [2, 6])

    def test_recovers_only_checked_bad_invocations(self):
        errors = np.array([0.5, 0.5, 0.0, 0.5])
        monitor = QualitySamplingMonitor(check_every_n=2, target_error=0.1)
        report = monitor.process_stream(errors)
        # Invocations 0 and 2 are checked; only 0 is bad and recovered.
        assert report.errors_after[0] == 0.0
        assert report.errors_after[1] == 0.5   # bad but unchecked: missed
        assert report.errors_after[3] == 0.5
        assert report.n_recovered == 1
        assert _missed_bad(report) == 2

    def test_miss_rate_approaches_1_minus_1_over_n(self):
        """Challenge II quantified: with uniformly spread bad invocations,
        sampling every Nth misses ~(N-1)/N of them."""
        rng = np.random.default_rng(0)
        errors = (rng.random(1000) < 0.2) * 0.5  # 20% bad, anywhere
        monitor = QualitySamplingMonitor(check_every_n=10, target_error=0.1)
        report = monitor.process_stream(errors)
        missed = _missed_bad(report) / (report.errors_before > 0.1).sum()
        assert missed == pytest.approx(0.9, abs=0.05)

    def test_check_every_1_misses_nothing(self):
        errors = np.array([0.5, 0.0, 0.9])
        monitor = QualitySamplingMonitor(check_every_n=1, target_error=0.1)
        report = monitor.process_stream(errors)
        assert _missed_bad(report) == 0
        assert report.errors_after.max() == 0.0
        assert report.exact_reexecution_fraction == 1.0

    def test_no_bad_invocations(self):
        monitor = QualitySamplingMonitor(check_every_n=5, target_error=0.1)
        report = monitor.process_stream(np.full(20, 0.01))
        assert report.n_recovered == 0
        assert _missed_bad(report) == 0

    def test_validations(self):
        with pytest.raises(ConfigurationError):
            QualitySamplingMonitor(check_every_n=0, target_error=0.1)
        with pytest.raises(ConfigurationError):
            QualitySamplingMonitor(check_every_n=2, target_error=-0.1)
        monitor = QualitySamplingMonitor(check_every_n=2, target_error=0.1)
        with pytest.raises(ConfigurationError):
            monitor.process_stream([])
        with pytest.raises(ConfigurationError):
            monitor.process_stream([-0.5])
