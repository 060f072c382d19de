"""Offline predictor training — the second trainer box of Fig. 4.

Given a benchmark and its trained accelerator backend, this module
assembles the training material for the error predictors (accelerator
features, accelerator outputs, observed per-element errors) and fits the
requested checker.  The coefficients it produces are what programs the
checker hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.base import Application
from repro.approx.npu_backend import NPUBackend
from repro.errors import ConfigurationError
from repro.predictors.base import ErrorPredictor
from repro.predictors.ema import EMAPredictor
from repro.predictors.linear import LinearErrorPredictor, LinearValuePredictor
from repro.predictors.oracle import OraclePredictor
from repro.predictors.sampling import RandomPredictor, UniformPredictor
from repro.predictors.tree import DecisionTreeErrorPredictor

__all__ = [
    "PredictorTrainingData",
    "collect_training_data",
    "train_predictor",
    "make_predictor",
    "SCHEME_NAMES",
]

#: Scheme names in the paper's plotting order (Figs. 10-15).
SCHEME_NAMES = ("Ideal", "Random", "Uniform", "EMA", "linearErrors", "treeErrors")


@dataclass
class PredictorTrainingData:
    """Material for fitting an error predictor on one benchmark."""

    features: np.ndarray        # accelerator input features (n, d)
    approx_outputs: np.ndarray  # accelerator outputs (n, out)
    exact_outputs: np.ndarray   # exact kernel outputs (n, out)
    errors: np.ndarray          # per-element error magnitudes (n,)


def collect_training_data(
    app: Application,
    backend: NPUBackend,
    seed: int = 1,
    n_cap: Optional[int] = 4000,
) -> PredictorTrainingData:
    """Run the accelerator on the training set and record its errors.

    Uses a different seed than the accelerator trainer so the predictor
    sees held-out accelerator behaviour (training the checker on the NN's
    own training residuals would understate field errors).
    """
    rng = np.random.default_rng(seed)
    inputs = np.atleast_2d(np.asarray(app.train_inputs(rng), dtype=float))
    if n_cap is not None and inputs.shape[0] > n_cap:
        pick = rng.choice(inputs.shape[0], size=n_cap, replace=False)
        inputs = inputs[pick]
    approx = backend(inputs)
    exact = app.exact(inputs)
    errors = app.element_errors(approx, exact)
    return PredictorTrainingData(
        features=backend.features(inputs),
        approx_outputs=approx,
        exact_outputs=exact,
        errors=errors,
    )


def make_predictor(scheme: str, seed: int = 0) -> ErrorPredictor:
    """Construct an (unfitted) predictor for a scheme name."""
    factories = {
        "Ideal": OraclePredictor,
        "Random": lambda: RandomPredictor(seed=seed),
        "Uniform": UniformPredictor,
        "EMA": EMAPredictor,
        "linearErrors": LinearErrorPredictor,
        "treeErrors": DecisionTreeErrorPredictor,
        "linearValues": LinearValuePredictor,
    }
    try:
        factory = factories[scheme]
    except KeyError:
        known = ", ".join(factories)
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; known: {known}"
        ) from None
    return factory()


def train_predictor(
    scheme: str,
    data: PredictorTrainingData,
    seed: int = 0,
) -> ErrorPredictor:
    """Build and (if needed) fit the predictor for ``scheme``.

    ``linearValues`` (EVP) fits on exact outputs; the error predictors fit
    on observed errors; oracle/baseline schemes need no fitting.
    """
    predictor = make_predictor(scheme, seed=seed)
    if isinstance(predictor, LinearValuePredictor):
        predictor.fit_values(data.features, data.exact_outputs)
    elif predictor.needs_fit:
        predictor.fit(data.features, data.errors)
    return predictor
