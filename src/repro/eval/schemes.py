"""Shared evaluation material for one benchmark (the basis of Figs. 10-15).

:func:`evaluate_benchmark` trains both accelerator networks for a benchmark
(the Rumba topology that the checked schemes run on, and the larger
unchecked-NPU topology), runs them over the Table 1 test set, fits every
detection scheme, and scores all test elements under each scheme.  The
result object is what the per-figure experiments consume; an in-process
cache keeps it for the process, and the trained backends and checkers come
from (and stay in) :func:`repro.core.offline.prepare_backend`'s and
:func:`~repro.core.offline.prepare_checker`'s caches and store, shared with
``prepare_system``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.base import Application
from repro.apps.registry import get_application
from repro.approx.npu_backend import NPUBackend
from repro.core.offline import prepare_backend, prepare_checker, streams
from repro.predictors.base import ErrorPredictor
from repro.predictors.training import SCHEME_NAMES

__all__ = ["BenchmarkEvaluation", "evaluate_benchmark", "clear_evaluation_cache"]


@dataclass
class BenchmarkEvaluation:
    """Everything the figure experiments need for one benchmark."""

    app: Application
    backend: NPUBackend               # Rumba-topology accelerator
    npu_backend: NPUBackend           # unchecked-NPU topology accelerator
    test_inputs: np.ndarray
    features: np.ndarray              # Rumba accelerator features
    approx: np.ndarray                # Rumba accelerator outputs
    exact: np.ndarray
    errors: np.ndarray                # per-element errors of the Rumba accel
    scores: Dict[str, np.ndarray]     # per-scheme element scores
    predictors: Dict[str, ErrorPredictor]
    unchecked_error: float            # Rumba accelerator, no fixes
    npu_unchecked_error: float        # unchecked-NPU accelerator, no fixes

    @property
    def n_elements(self) -> int:
        return int(self.errors.shape[0])


_EVAL_CACHE: Dict[Tuple[str, int, Optional[int]], BenchmarkEvaluation] = {}


def clear_evaluation_cache() -> None:
    """Drop cached evaluations (mainly for tests)."""
    _EVAL_CACHE.clear()


def evaluate_benchmark(
    name: str,
    seed: int = 0,
    n_test_cap: Optional[int] = 20000,
    cache: bool = True,
) -> BenchmarkEvaluation:
    """Prepare the full evaluation material for one Table 1 benchmark.

    ``n_test_cap`` subsamples very large test sets (the image benchmarks
    produce one element per pixel) while preserving stream order, which the
    output-based EMA detector relies on.
    """
    key = (name, seed, n_test_cap)
    if cache and key in _EVAL_CACHE:
        return _EVAL_CACHE[key]

    app = get_application(name)
    # The trained backends and checkers are the serving stack's too: one
    # cache, one store.
    backend = prepare_backend(app, True, seed=seed, cache=cache)
    npu_backend = prepare_backend(app, False, seed=seed, cache=cache)

    rng = np.random.default_rng(streams(seed).evaluation)
    test_inputs = np.atleast_2d(np.asarray(app.test_inputs(rng), dtype=float))
    if n_test_cap is not None and test_inputs.shape[0] > n_test_cap:
        pick = np.sort(
            rng.choice(test_inputs.shape[0], size=n_test_cap, replace=False)
        )
        test_inputs = test_inputs[pick]

    approx = backend(test_inputs)
    exact = app.exact(test_inputs)
    errors = app.element_errors(approx, exact)
    npu_approx = npu_backend(test_inputs)

    predictors: Dict[str, ErrorPredictor] = {}
    scores: Dict[str, np.ndarray] = {}
    features = backend.features(test_inputs)
    for scheme in SCHEME_NAMES:
        predictor = prepare_checker(app, backend, scheme, seed=seed,
                                    cache=cache)
        predictors[scheme] = predictor
        scores[scheme] = np.asarray(
            predictor.scores(
                features=features, approx_outputs=approx, true_errors=errors
            ),
            dtype=float,
        ).ravel()

    evaluation = BenchmarkEvaluation(
        app=app,
        backend=backend,
        npu_backend=npu_backend,
        test_inputs=test_inputs,
        features=features,
        approx=approx,
        exact=exact,
        errors=errors,
        scores=scores,
        predictors=predictors,
        unchecked_error=app.output_error(approx, exact),
        npu_unchecked_error=app.output_error(npu_approx, exact),
    )
    if cache:
        _EVAL_CACHE[key] = evaluation
    return evaluation
