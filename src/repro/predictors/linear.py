"""Linear error prediction (paper Sec. 3.2.1) and the EVP/EEP pair.

Two flavors are provided:

* :class:`LinearErrorPredictor` — *Errors by Error Prediction* (EEP): a
  linear model ``err = w . x + c`` fit directly on observed approximation
  errors.  This is the paper's ``linearErrors`` scheme; its hardware is the
  MAC chain of Fig. 7(a).
* :class:`LinearValuePredictor` — *Errors by Value Prediction* (EVP): a
  linear model predicts the *output value*; the score is the distance
  between that prediction and the accelerator's output.  The paper found
  EEP ~2.5x more accurate than EVP on the Gaussian case study (Sec. 3.2);
  the ablation bench reproduces that comparison.

Both are fit with ordinary least squares (normal equations via
``numpy.linalg.lstsq``), which is exactly the offline trainer the paper's
second trainer box in Fig. 4 needs for a linear model.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.predictors.base import ErrorPredictor

__all__ = ["LinearErrorPredictor", "LinearValuePredictor"]


def _lstsq_with_bias(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares weights for ``targets ~ [features, 1]``."""
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    weights, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return weights


class LinearErrorPredictor(ErrorPredictor):
    """EEP with a linear model: ``score = w0*x0 + ... + wN-1*xN-1 + c``.

    The weights and constant are determined by offline training (Eq. 1 of
    the paper).  Scores are clamped at zero — a predicted negative error
    means "no error expected".
    """

    name = "linearErrors"
    checker_kind = "linear"
    is_input_based = True
    needs_fit = True
    online_state = False

    def __init__(self) -> None:
        super().__init__()
        self.weights: Optional[np.ndarray] = None  # (n_features,)
        self.bias: float = 0.0

    def _fit(self, features: np.ndarray, errors: np.ndarray) -> None:
        solution = _lstsq_with_bias(features, errors)
        self.weights = solution[:-1]
        self.bias = float(solution[-1])

    def scores(self, features=None, approx_outputs=None, true_errors=None):
        self._require_fitted()
        if features is None:
            raise ConfigurationError("linearErrors is input-based: needs features")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.shape[1] != self.weights.shape[0]:
            raise ConfigurationError(
                f"expected {self.weights.shape[0]} feature columns, got "
                f"{features.shape[1]}"
            )
        return np.maximum(features @ self.weights + self.bias, 0.0)

    def coefficient_count(self) -> int:
        """N weights plus the constant (Fig. 7(a) coefficient buffer)."""
        self._require_fitted()
        return int(self.weights.shape[0]) + 1

    def coefficients(self):
        """Weights then the constant — the Fig. 7(a) buffer contents."""
        self._require_fitted()
        return [float(w) for w in self.weights] + [self.bias]

    def state(self) -> Dict[str, np.ndarray]:
        """The Fig. 7(a) buffer as arrays: ``weights`` and the ``constant``."""
        self._require_fitted()
        return {"weights": self.weights, "constant": np.float64(self.bias)}

    def load_state(self, n_features: int, weights: np.ndarray,
                   constant: np.ndarray) -> "LinearErrorPredictor":
        """Fit to :meth:`state`'s arrays, for rows of ``n_features``
        columns; a wrong dtype or shape or a non-finite number raises
        ConfigurationError."""
        if not (weights.dtype == constant.dtype == np.float64
                and weights.shape == (n_features,) and constant.shape == ()
                and np.isfinite(weights).all() and np.isfinite(constant)):
            raise ConfigurationError("not the arrays of a linear checker's state")
        self.weights, self.bias = weights, float(constant)
        self._fitted = True
        return self


class LinearValuePredictor(ErrorPredictor):
    """EVP: predict the output with a linear model, score by disagreement.

    The score of an element is the mean absolute difference between the
    linear model's predicted outputs and the accelerator's outputs.  Used
    by the EVP-vs-EEP ablation; the paper's production schemes use EEP.
    """

    name = "linearValues"
    checker_kind = "linear"
    is_input_based = True
    needs_fit = True
    online_state = False

    def __init__(self) -> None:
        super().__init__()
        self.weights: Optional[np.ndarray] = None  # (n_features + 1, n_out)

    def fit_values(
        self, features: np.ndarray, exact_outputs: np.ndarray
    ) -> "LinearValuePredictor":
        """Fit the value model on exact kernel outputs (not errors)."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        exact_outputs = np.atleast_2d(np.asarray(exact_outputs, dtype=float))
        if features.shape[0] != exact_outputs.shape[0]:
            raise ConfigurationError("features/outputs sample counts disagree")
        self.weights = _lstsq_with_bias(features, exact_outputs)
        self._fitted = True
        return self

    def _fit(self, features: np.ndarray, errors: np.ndarray) -> None:
        raise ConfigurationError(
            "LinearValuePredictor is trained on exact outputs; call "
            "fit_values(features, exact_outputs) instead of fit()"
        )

    def scores(self, features=None, approx_outputs=None, true_errors=None):
        self._require_fitted()
        if features is None or approx_outputs is None:
            raise ConfigurationError(
                "EVP needs both features and the accelerator outputs"
            )
        features = np.atleast_2d(np.asarray(features, dtype=float))
        approx_outputs = np.atleast_2d(np.asarray(approx_outputs, dtype=float))
        design = np.hstack([features, np.ones((features.shape[0], 1))])
        predicted = design @ self.weights
        if predicted.shape != approx_outputs.shape:
            raise ConfigurationError(
                f"value model predicts {predicted.shape[1]} outputs but the "
                f"accelerator produced {approx_outputs.shape[1]}"
            )
        return np.mean(np.abs(predicted - approx_outputs), axis=1)

    def coefficient_count(self) -> int:
        self._require_fitted()
        return int(self.weights.size)

    def coefficients(self):
        """The value model's weight matrix, flattened row-major."""
        self._require_fitted()
        return [float(w) for w in self.weights.ravel()]
