"""Error-predictor interface shared by all detection schemes.

A predictor assigns every output element a *score*: an estimate of (or proxy
for) the element's approximation error.  Detection fires when the score
exceeds the tuning threshold; the Fig. 10-style sweeps instead fix the
top-``x%`` of elements by score.

Input-based predictors (linear, tree — Sec. 3.2) score from the accelerator
*inputs*; output-based predictors (EMA) score from the accelerator *outputs*.
The baseline schemes (Ideal, Random, Uniform) share the same interface so
every experiment treats all schemes uniformly.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError, NotFittedError

__all__ = ["ErrorPredictor"]


class ErrorPredictor(ABC):
    """Base class for per-element error scorers.

    Class attributes
    ----------------
    name:
        Scheme name used in result tables ("linearErrors", "treeErrors",
        "EMA", "Ideal", "Random", "Uniform").
    checker_kind:
        The hardware checker this predictor maps onto (see
        :class:`repro.hardware.checker_hw.CheckerModel`): ``"linear"``,
        ``"tree"``, ``"ema"`` or ``"none"`` for oracle/baseline schemes that
        have no hardware realization.
    is_input_based:
        Whether scores are computed from accelerator inputs (True) or
        outputs (False).
    needs_fit:
        Whether :meth:`fit` must be called before :meth:`scores`.
    online_state:
        Whether :meth:`scores` carries state between calls.
    """

    name: str = "base"
    checker_kind: str = "none"
    is_input_based: bool = True
    needs_fit: bool = True
    online_state: bool = True

    def __init__(self) -> None:
        self._fitted = not self.needs_fit

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def fit(self, features: np.ndarray, errors: np.ndarray) -> "ErrorPredictor":
        """Offline training on (accelerator features, observed errors).

        The default implementation just records that fitting happened;
        subclasses with parameters override :meth:`_fit`.
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        errors = np.asarray(errors, dtype=float).ravel()
        if features.shape[0] != errors.shape[0]:
            raise ConfigurationError(
                f"features ({features.shape[0]}) and errors "
                f"({errors.shape[0]}) disagree on sample count"
            )
        if features.shape[0] == 0:
            raise ConfigurationError("cannot fit a predictor on zero samples")
        self._fit(features, errors)
        self._fitted = True
        return self

    def _fit(self, features: np.ndarray, errors: np.ndarray) -> None:
        """Subclass hook; default is stateless."""

    def reset_state(self) -> None:
        """Clear any *online* state carried between invocations.

        Output-history checkers (EMA) track the signal across
        :meth:`scores` calls; sharding a system must reset that state so
        each shard sees only its own stream.  Trained parameters are not
        touched.  Default is a no-op for stateless predictors.
        """

    def clone_shard(self) -> "ErrorPredictor":
        """This predictor for a fresh serving shard: ``self`` without
        online state, else a deep copy after :meth:`reset_state` (EMA's
        average resets; Random's copy keeps its invocation counter)."""
        if not self.online_state:
            return self
        clone = copy.deepcopy(self)
        clone.reset_state()
        return clone

    @abstractmethod
    def scores(
        self,
        features: Optional[np.ndarray] = None,
        approx_outputs: Optional[np.ndarray] = None,
        true_errors: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-element scores, one per row of the provided arrays.

        Input-based predictors read ``features``; output-based ones read
        ``approx_outputs``; the Ideal oracle reads ``true_errors``.  Every
        experiment passes all three so schemes are interchangeable.
        """

    def coefficient_count(self) -> int:
        """Words it takes to program the checker hardware."""
        return 0

    def coefficients(self) -> List[float]:
        """The words that program the checker hardware, in order.

        Must have exactly :meth:`coefficient_count` entries; schemes with
        no hardware realization (oracle/baselines) ship nothing.
        """
        return []

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} used before fit()")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
