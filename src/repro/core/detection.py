"""The detection module (paper Sec. 3.2, the accelerator-side half of Fig. 4).

For every output element the detection module computes the predictor's
score and fires a check when the score exceeds the tuning threshold; firing
sets the element's *recovery bit* (the bits vector is the recovery queue).
Each invocation's :class:`DetectionResult` carries its scores and bits
(the record's fire counts come from them), and the module knows its own
hardware cost via :class:`CheckerModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.checker_hw import CheckerModel
from repro.predictors.base import ErrorPredictor

__all__ = ["DetectionModule", "DetectionResult"]


@dataclass
class DetectionResult:
    """Outcome of running detection over one accelerator invocation."""

    scores: np.ndarray
    recovery_bits: np.ndarray  # bool per element
    threshold: float

    @property
    def n_elements(self) -> int:
        return int(self.scores.shape[0])

    @property
    def n_fired(self) -> int:
        return int(self.recovery_bits.sum())

    @property
    def fire_fraction(self) -> float:
        return self.n_fired / self.n_elements if self.n_elements else 0.0


class DetectionModule:
    """Continuous light-weight checking beside the accelerator.

    Parameters
    ----------
    predictor:
        The fitted error predictor realizing the checker.
    threshold:
        Initial tuning threshold on scores (updated by the online tuner).
    n_inputs:
        Kernel input width (for the linear checker's hardware cost).
    """

    def __init__(
        self,
        predictor: ErrorPredictor,
        threshold: float,
        n_inputs: int = 1,
    ):
        if threshold < 0.0:
            raise ConfigurationError("threshold must be >= 0")
        self.predictor = predictor
        self.threshold = float(threshold)
        tree_depth = getattr(predictor, "max_depth", 7)
        self.checker = CheckerModel(
            kind=predictor.checker_kind,
            n_inputs=max(n_inputs, 1),
            tree_depth=tree_depth,
        )

    def detect_into(
        self,
        features: Optional[np.ndarray] = None,
        approx_outputs: Optional[np.ndarray] = None,
        true_errors: Optional[np.ndarray] = None,
    ) -> DetectionResult:
        """Score one invocation's elements and set recovery bits.

        A bit is set when the score exceeds the threshold or is
        non-finite.
        """
        scores = np.asarray(
            self.predictor.scores(
                features=features,
                approx_outputs=approx_outputs,
                true_errors=true_errors,
            ),
            dtype=float,
        ).ravel()
        bits = np.greater(scores, self.threshold)
        # A non-finite score means the accelerator (or the checker datapath)
        # produced garbage for that element; a hardware checker's sanity
        # logic fires unconditionally on such values, and so do we.
        finite = np.isfinite(scores)
        if not finite.all():
            np.logical_not(finite, out=finite)
            np.logical_or(bits, finite, out=bits)
        return DetectionResult(scores=scores, recovery_bits=bits,
                               threshold=self.threshold)
