"""Offline preparation — both trainer boxes of Fig. 4 in one call.

:func:`prepare_system` trains the accelerator network on the benchmark's
training data (first trainer), runs it to collect error observations and
fits the requested checker (second trainer), then wires everything into a
ready :class:`~repro.core.runtime.RumbaSystem`.

Because several benches and examples prepare the same (app, scheme, seed)
combinations, small in-process caches avoid retraining, and a
content-addressed store on disk (:data:`STORE_DIR`) keeps what both
trainers produce across processes: each trained network and each fitted
linear or tree checker.  Pass ``cache=False`` to force fresh training.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.base import Application
from repro.apps.registry import APPLICATION_NAMES, get_application
from repro.approx.ensemble import (
    ApproximatorEnsemble,
    EnsembleSpec,
    build_ensemble,
)
from repro.approx.npu_backend import NPUBackend, train_npu_backend
from repro.core.config import RumbaConfig
from repro.core.runtime import RumbaSystem
from repro.errors import ConfigurationError
from repro.nn.mlp import MLP
from repro.nn.scaler import MinMaxScaler
from repro.predictors.base import ErrorPredictor
from repro.metrics.analysis import calibrate_threshold
from repro.predictors.training import (
    PredictorTrainingData,
    collect_training_data,
    make_predictor,
    train_predictor,
)
from repro.streams import streams

__all__ = [
    "prepare_system",
    "prepare_backend",
    "prepare_checker",
    "checker_data",
    "prepare_ensemble",
    "clear_cache",
]


_BACKEND_CACHE: Dict[Tuple[str, bool, int], NPUBackend] = {}
_DATA_CACHE: Dict[Tuple[str, int], PredictorTrainingData] = {}
_ENSEMBLE_CACHE: Dict[Tuple[str, EnsembleSpec, int], ApproximatorEnsemble] = {}

_PACKAGE = Path(__file__).resolve().parents[1]
#: The store of both trainers: one ``.npz`` per (app, topology, seed,
#: training-source digest) for a network and per (app, scheme, seed,
#: checker-source digest) for a checker, at the repository root and
#: gitignored.
STORE_DIR = _PACKAGE.parents[1] / ".cache" / "npu"
#: What training reads, relative to the package: a byte changed in any of
#: them changes every store key.  Of ``apps/``, the suite's kernels and
#: what they build on; no trainer reads ``workloads.py`` or ``mosaic.py``.
_TRAINING_SOURCES = ("nn/*.py", "approx/npu_backend.py", "core/offline.py",
                     "streams.py", *(f"apps/{name}.py" for name in (
                         "base", "datasets", "registry", *APPLICATION_NAMES)))
#: What a checker is fit from: its network's sources and the fitters, so
#: editing a checker refits checkers without retraining networks.
_CHECKER_SOURCES = _TRAINING_SOURCES + ("predictors/*.py",)
#: The schemes whose fitted checker is stored (the others fit nothing).
_STORED_SCHEMES = ("linearErrors", "treeErrors")
#: A stored scaler's arrays (:meth:`MinMaxScaler.state`), as members
#: ``in_<part>`` and ``out_<part>``.
_SCALER_PARTS = ("min", "span", "constant")


def clear_cache() -> None:
    """Drop all cached backends, checker data and ensembles (mainly for tests).

    Only this process's caches: the on-disk store is keyed by the source
    it was trained from and stays (``rm -rf .cache/npu`` empties it).
    """
    _BACKEND_CACHE.clear()
    _DATA_CACHE.clear()
    _ENSEMBLE_CACHE.clear()


def _cacheable(app: Application) -> bool:
    """Only a registry-built app is fully named by its name: any other
    (hand-built, ``dataclasses.replace``d) trains for itself."""
    return getattr(app, "_registry_backed", False)


def _source_digest(package: Path = _PACKAGE,
                   sources: Tuple[str, ...] = _TRAINING_SOURCES) -> Optional[str]:
    """sha256 over numpy's version and the ``sources`` under ``package``;
    ``None`` (no store) when any of them cannot be read."""
    digest = hashlib.sha256(np.__version__.encode())
    try:
        for pattern in sources:
            paths = sorted(package.glob(pattern))
            if not paths:
                return None
            for path in paths:
                digest.update(path.relative_to(package).as_posix().encode()
                              + b"\0" + path.read_bytes())
    except OSError:
        return None
    return digest.hexdigest()


#: Computed once per process and source set: the sources do not change
#: under it.
_store_digest = functools.lru_cache(maxsize=2)(_source_digest)


def _store_path(stem: str,
                sources: Tuple[str, ...] = _TRAINING_SOURCES) -> Optional[Path]:
    digest = _store_digest(_PACKAGE, sources)
    return None if digest is None else STORE_DIR / f"{stem}-{digest}.npz"


def _network_path(app: Application, use_rumba_topology: bool,
                  seed: int) -> Optional[Path]:
    topology = "rumba" if use_rumba_topology else "npu"
    return _store_path(f"{app.name}-{topology}-seed{seed}")


def _checker_path(app: Application, scheme: str, seed: int) -> Optional[Path]:
    return _store_path(f"{app.name}-{scheme}-seed{seed}", _CHECKER_SOURCES)


def _store_load(app: Application, use_rumba_topology: bool,
                seed: int) -> Optional[NPUBackend]:
    """The stored backend, or ``None`` on a miss: no file, a read error, or
    an array of the wrong dtype or shape or with a non-finite value."""
    path = _network_path(app, use_rumba_topology, seed)
    if path is None:
        return None
    topology = app.rumba_topology if use_rumba_topology else app.npu_topology
    expected = {"params": (np.float64, (topology.n_weights,))}
    for side, width in (("in", topology.n_inputs), ("out", topology.n_outputs)):
        for part, dtype in zip(_SCALER_PARTS, (np.float64, np.float64, np.bool_)):
            expected[f"{side}_{part}"] = (dtype, (width,))
    try:
        with np.load(path, allow_pickle=False) as stored:
            arrays = {name: stored[name] for name in expected}
    except Exception:  # a damaged file raises any of six types: all a miss
        return None
    for name, (dtype, shape) in expected.items():
        array = arrays[name]
        if array.dtype != dtype or array.shape != shape or (
                dtype is np.float64 and not np.isfinite(array).all()):
            return None
    network = MLP(topology)
    network.set_flat_params(arrays["params"])
    scalers = [MinMaxScaler.from_state(
        *(arrays[f"{side}_{part}"] for part in _SCALER_PARTS))
        for side in ("in", "out")]
    return NPUBackend(
        network=network, input_scaler=scalers[0], output_scaler=scalers[1],
        input_columns=app.rumba_input_columns if use_rumba_topology else None,
    )


def _network_arrays(backend: NPUBackend) -> Dict[str, np.ndarray]:
    arrays = {"params": backend.network.get_flat_params()}
    for side, scaler in (("in", backend.input_scaler),
                         ("out", backend.output_scaler)):
        for part, array in zip(_SCALER_PARTS, scaler.state()):
            arrays[f"{side}_{part}"] = array
    return arrays


def _store_save(path: Optional[Path], arrays: Dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``path``; a store that cannot be written is skipped.

    The file is written under a temporary name in the store itself and
    renamed into place, so processes storing one key at once cannot tear it.
    """
    if path is None:
        return
    temp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(prefix=path.name, suffix=".tmp",
                                    dir=path.parent)
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(temp, path)
    except OSError:
        if temp is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp)


def prepare_backend(
    app: Application,
    use_rumba_topology: bool = True,
    seed: int = 0,
    cache: bool = True,
) -> NPUBackend:
    """Train (or fetch cached) the accelerator backend.

    With ``cache``, a registry-built app's backend comes from this
    process's cache, else from the store, else from training, which then
    fills both.  ``cache=False`` or any other app trains, touching neither.
    """
    cache = cache and _cacheable(app)
    key = (app.name, use_rumba_topology, seed)
    if cache and key in _BACKEND_CACHE:
        return _BACKEND_CACHE[key]
    backend = _store_load(app, use_rumba_topology, seed) if cache else None
    if backend is None:
        backend, _ = train_npu_backend(
            app, use_rumba_topology=use_rumba_topology,
            seed=streams(seed).accelerator,
        )
        if cache:
            _store_save(_network_path(app, use_rumba_topology, seed),
                        _network_arrays(backend))
    if cache:
        _BACKEND_CACHE[key] = backend
    return backend


def checker_data(app: Application, backend: NPUBackend, seed: int = 0,
                 cache: bool = True) -> PredictorTrainingData:
    """The second trainer's material: ``backend``'s errors on held-out
    training rows.  ``backend`` is ``prepare_backend(app, seed=seed,
    cache=cache)``'s; with ``cache`` a registry-built app's data is
    collected once per process."""
    cache = cache and _cacheable(app)
    key = (app.name, seed)
    if cache and key in _DATA_CACHE:
        return _DATA_CACHE[key]
    data = collect_training_data(app, backend,
                                 seed=streams(seed).checker_training)
    if cache:
        _DATA_CACHE[key] = data
    return data


def _checker_load(app: Application, scheme: str,
                  seed: int) -> Optional[ErrorPredictor]:
    """The stored checker, or ``None`` on a miss: no file, a read error, or
    arrays its ``load_state`` rejects (a wrong dtype or shape, a NaN
    threshold or another non-finite number, a feature outside the
    network's inputs, a tree that is malformed or deeper than its
    ``max_depth``)."""
    path = _checker_path(app, scheme, seed)
    if path is None:
        return None
    try:
        with np.load(path, allow_pickle=False) as stored:
            return make_predictor(scheme, seed=streams(seed).checker).load_state(
                app.rumba_topology.n_inputs, **stored)
    except Exception:  # a damaged file raises any of six types: all a miss
        return None


def prepare_checker(app: Application, backend: NPUBackend,
                    scheme: str = "treeErrors", seed: int = 0,
                    cache: bool = True) -> ErrorPredictor:
    """The ready checker of ``scheme`` for (app, seed), fit on ``backend``
    (``prepare_backend(app, seed=seed, cache=cache)``'s).

    With ``cache``, a registry-built app's linear or tree checker comes
    from the store, else it is fit on :func:`checker_data` and stored.  A
    scheme that fits nothing needs no data, and ``cache=False`` or any
    other app fits afresh, touching neither the store nor the data cache.
    """
    cache = cache and _cacheable(app)
    stored = cache and scheme in _STORED_SCHEMES
    predictor = _checker_load(app, scheme, seed) if stored else None
    if predictor is not None:
        return predictor
    predictor = make_predictor(scheme, seed=streams(seed).checker)
    if predictor.needs_fit:
        data = checker_data(app, backend, seed=seed, cache=cache)
        predictor = train_predictor(scheme, data, seed=streams(seed).checker)
        if stored:
            _store_save(_checker_path(app, scheme, seed), predictor.state())
    return predictor


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
    cache = cache and _cacheable(app)
    key = (app.name, spec, seed)
    if cache and key in _ENSEMBLE_CACHE:
        return _ENSEMBLE_CACHE[key]
    reference = prepare_backend(app, seed=seed, cache=cache)
    ensemble = build_ensemble(app, spec, reference, streams(seed))
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
    backend = network = prepare_backend(app, seed=seed, cache=cache)
    predictor = prepare_checker(app, network, scheme, seed=seed, cache=cache)
    prototype_ensemble = None
    if ensemble is not None:
        # Hand each system a shard clone so the cached prototype's
        # counters and degradation level stay pristine across systems.
        prototype_ensemble = prepare_ensemble(
            app, ensemble, seed=seed, cache=cache
        ).clone_shard()
        backend = prototype_ensemble.reference
    system = RumbaSystem(app=app, backend=backend, predictor=predictor,
                         config=config, ensemble=prototype_ensemble)
    if config.mode.value == "toq" and scheme in ("EMA", "Random", "Uniform"):
        # These schemes score in arbitrary units, not predicted error;
        # calibrate the TOQ threshold on the training data so the quality
        # budget maps onto their score scale.
        data = checker_data(app, network, seed=seed, cache=cache)
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
