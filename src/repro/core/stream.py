"""Streaming quality management with drift detection.

Challenge II warns that "profiling techniques do not work efficiently if
the profiling data is not representative of all possible inputs": a
checker trained on one input population can quietly degrade when the
deployment's inputs drift away from it.

:class:`QualityManagedStream` wraps a :class:`~repro.core.runtime.RumbaSystem`
for long-running deployments: it feeds invocations through the runtime,
keeps windowed statistics, and raises a *drift flag* when the detector's
observable behaviour (its fire rate) departs from the band established
during a calibration period.  A drifted checker is exactly one whose
training data stopped being representative — the flag tells the host to
retrain the offline models (Fig. 4's trainers) on fresh data.

Drift is judged only from quantities the deployed system can observe
(scores and fire rates), never from ground-truth errors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

import numpy as np

from repro.core.runtime import InvocationRecord, RumbaSystem
from repro.errors import ConfigurationError

__all__ = ["DriftDetector", "StreamStatus", "QualityManagedStream"]


class DriftDetector:
    """Flags shifts in the detector's fire rate.

    The first ``calibration_invocations`` establish a reference band
    (mean ± ``tolerance_sigmas`` standard deviations, clamped between
    ``min_band`` and ``max_band`` — short calibrations estimate the spread
    noisily in both directions); afterwards, an exponentially smoothed
    fire rate outside the band raises the drift flag.  ``flags`` counts
    the observations that raised it since the last :meth:`reset`.
    """

    def __init__(
        self,
        calibration_invocations: int = 10,
        tolerance_sigmas: float = 4.0,
        min_band: float = 0.05,
        max_band: float = 0.25,
        smoothing: float = 0.3,
    ):
        if calibration_invocations < 2:
            raise ConfigurationError("need at least 2 calibration invocations")
        if tolerance_sigmas <= 0 or min_band < 0:
            raise ConfigurationError("tolerance must be positive")
        if max_band < min_band:
            raise ConfigurationError("max_band must be >= min_band")
        if not (0.0 < smoothing <= 1.0):
            raise ConfigurationError("smoothing must be in (0, 1]")
        self.calibration_invocations = calibration_invocations
        self.tolerance_sigmas = tolerance_sigmas
        self.min_band = min_band
        self.max_band = max_band
        self.smoothing = smoothing
        self._calibration: List[float] = []
        self._smoothed: Optional[float] = None
        self.reference_mean: Optional[float] = None
        self.reference_band: Optional[float] = None
        self.flags = 0

    @property
    def is_calibrated(self) -> bool:
        return self.reference_mean is not None

    @property
    def drifted(self) -> bool:
        """True once any observation has left the band (until reset)."""
        return self.flags > 0

    def observe(self, fire_rate: float) -> bool:
        """Feed one invocation's fire rate; returns True when drifted."""
        if not (0.0 <= fire_rate <= 1.0):
            raise ConfigurationError("fire_rate must be in [0, 1]")
        if not self.is_calibrated:
            self._calibration.append(fire_rate)
            if len(self._calibration) >= self.calibration_invocations:
                values = np.asarray(self._calibration)
                self.reference_mean = float(values.mean())
                self.reference_band = float(np.clip(
                    self.tolerance_sigmas * float(values.std()),
                    self.min_band, self.max_band,
                ))
                self._smoothed = self.reference_mean
            return False
        self._smoothed = (
            self.smoothing * fire_rate
            + (1.0 - self.smoothing) * self._smoothed
        )
        drifted_now = (
            abs(self._smoothed - self.reference_mean) > self.reference_band
        )
        if drifted_now:
            self.flags += 1
        return drifted_now

    def reset(self) -> None:
        """Forget the calibration and the flags (call after retraining)."""
        self.flags = 0
        self._calibration = []
        self._smoothed = None
        self.reference_mean = None
        self.reference_band = None


@dataclass
class StreamStatus:
    """Windowed view of a managed stream."""

    n_invocations: int
    mean_fix_fraction: float
    mean_threshold: float
    drifted: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        flag = " DRIFT" if self.drifted else ""
        return (
            f"stream[{self.n_invocations} inv, fix "
            f"{self.mean_fix_fraction * 100:.1f}%]{flag}"
        )


class QualityManagedStream:
    """Long-running deployment wrapper around a RumbaSystem."""

    def __init__(
        self,
        system: RumbaSystem,
        drift_detector: Optional[DriftDetector] = None,
        window: int = 20,
    ):
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        self.system = system
        self.drift = drift_detector or DriftDetector()
        self.window = window
        self._recent: Deque[InvocationRecord] = deque(maxlen=window)
        self._count = 0

    def feed(self, inputs: np.ndarray) -> InvocationRecord:
        """Process one invocation; updates drift state."""
        record = self.system.run_invocation(inputs, measure_quality=False)
        self._recent.append(record)
        self._count += 1
        drifted_now = self.drift.observe(record.detection.fire_fraction)
        telemetry = self.system.telemetry
        if telemetry is not None:
            telemetry.on_drift(drifted_now, self.drift.drifted)
        return record

    @property
    def needs_retraining(self) -> bool:
        """True once drift has been flagged and not yet acknowledged."""
        return self.drift.drifted

    def acknowledge_retraining(self) -> None:
        """Clear drift state after the offline trainers have been re-run."""
        self.drift.reset()

    def status(self) -> StreamStatus:
        if not self._recent:
            raise ConfigurationError("no invocations processed yet")
        return StreamStatus(
            n_invocations=self._count,
            mean_fix_fraction=float(
                np.mean([r.fix_fraction for r in self._recent])
            ),
            mean_threshold=float(
                np.mean([r.detection.threshold for r in self._recent])
            ),
            drifted=self.needs_retraining,
        )
