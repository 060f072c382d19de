"""Offline preparation — both trainer boxes of Fig. 4 in one call.

:func:`prepare_system` trains the accelerator network on the benchmark's
training data (first trainer), runs it to collect error observations and
fits the requested checker (second trainer), then wires everything into a
ready :class:`~repro.core.runtime.RumbaSystem`.

Because several benches and examples prepare the same (app, scheme, seed)
combinations, a small in-process cache avoids retraining; pass
``cache=False`` to force fresh training.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.apps.base import Application
from repro.apps.registry import get_application
from repro.approx.ensemble import (
    ApproximatorEnsemble,
    EnsembleSpec,
    build_ensemble,
)
from repro.approx.npu_backend import NPUBackend, train_npu_backend
from repro.core.config import RumbaConfig
from repro.core.runtime import RumbaSystem
from repro.errors import ConfigurationError
from repro.predictors.base import ErrorPredictor
from repro.metrics.analysis import calibrate_threshold
from repro.predictors.training import (
    PredictorTrainingData,
    collect_training_data,
    train_predictor,
)

__all__ = [
    "prepare_system",
    "prepare_backend",
    "prepare_ensemble",
    "clear_cache",
]

_BACKEND_CACHE: Dict[Tuple[str, bool, int], Tuple[NPUBackend, PredictorTrainingData]] = {}
_ENSEMBLE_CACHE: Dict[Tuple[str, EnsembleSpec, int], ApproximatorEnsemble] = {}


def clear_cache() -> None:
    """Drop all cached trained backends/ensembles (mainly for tests)."""
    _BACKEND_CACHE.clear()
    _ENSEMBLE_CACHE.clear()


def prepare_backend(
    app: Application,
    use_rumba_topology: bool = True,
    seed: int = 0,
    cache: bool = True,
) -> Tuple[NPUBackend, PredictorTrainingData]:
    """Train (or fetch cached) accelerator backend + checker training data."""
    key = (app.name, use_rumba_topology, seed)
    if cache and key in _BACKEND_CACHE:
        return _BACKEND_CACHE[key]
    backend, _ = train_npu_backend(
        app, use_rumba_topology=use_rumba_topology, seed=seed
    )
    data = collect_training_data(app, backend, seed=seed + 1)
    if cache:
        _BACKEND_CACHE[key] = (backend, data)
    return backend, data


def prepare_ensemble(
    app: Application,
    spec: Optional[EnsembleSpec] = None,
    seed: int = 0,
    cache: bool = True,
) -> ApproximatorEnsemble:
    """Train (or fetch cached) an approximator ensemble for a benchmark.

    The reference (rank-0) member reuses the cached single-MLP backend
    from :func:`prepare_backend`, so an ensemble system and the plain
    system it is compared against share identical reference weights.
    The returned ensemble is a *prototype*: serving shards call
    :meth:`~repro.approx.ensemble.ApproximatorEnsemble.clone_shard`.
    """
    spec = spec or EnsembleSpec()
    key = (app.name, spec, seed)
    if cache and key in _ENSEMBLE_CACHE:
        return _ENSEMBLE_CACHE[key]
    reference, _ = prepare_backend(app, seed=seed, cache=cache)
    ensemble = build_ensemble(app, spec, seed=seed, reference=reference)
    if cache:
        _ENSEMBLE_CACHE[key] = ensemble
    return ensemble


def prepare_system(
    app_or_name,
    scheme: str = "treeErrors",
    config: Optional[RumbaConfig] = None,
    seed: int = 0,
    cache: bool = True,
    ensemble: Optional[EnsembleSpec] = None,
) -> RumbaSystem:
    """Build a ready-to-run Rumba system for a benchmark.

    Parameters
    ----------
    app_or_name:
        An :class:`Application` or a Table 1 benchmark name.
    scheme:
        Detection scheme ("linearErrors", "treeErrors", "EMA", "Ideal",
        "Random", "Uniform").
    config:
        Runtime configuration; defaults to TOQ mode at 90% quality with
        the requested scheme.
    ensemble:
        Optional :class:`~repro.approx.ensemble.EnsembleSpec`; when given
        the system routes every invocation across the spec's members (the
        reference member being the same cached single-MLP backend a plain
        system would use), with router predictors fit once, offline.
    """
    app = (
        app_or_name
        if isinstance(app_or_name, Application)
        else get_application(app_or_name)
    )
    config = config or RumbaConfig(scheme=scheme, seed=seed)
    if config.scheme != scheme:
        raise ConfigurationError(
            f"scheme {scheme!r} disagrees with config.scheme {config.scheme!r}"
        )
    backend, data = prepare_backend(app, seed=seed, cache=cache)
    prototype_ensemble = None
    if ensemble is not None:
        # Hand each system a shard clone so the cached prototype's
        # counters and degradation level stay pristine across systems.
        prototype_ensemble = prepare_ensemble(
            app, ensemble, seed=seed, cache=cache
        ).clone_shard()
        backend = prototype_ensemble.reference
    predictor: ErrorPredictor = train_predictor(scheme, data, seed=seed)
    system = RumbaSystem(app=app, backend=backend, predictor=predictor,
                         config=config, ensemble=prototype_ensemble)
    if config.mode.value == "toq" and scheme in ("EMA", "Random", "Uniform"):
        # These schemes score in arbitrary units, not predicted error;
        # calibrate the TOQ threshold on the training data so the quality
        # budget maps onto their score scale.
        scores = predictor.scores(
            features=data.features,
            approx_outputs=data.approx_outputs,
            true_errors=data.errors,
        )
        threshold = calibrate_threshold(
            scores, data.errors, config.target_output_error
        )
        system.tuner.threshold = threshold
        system.detection.threshold = threshold
    return system
