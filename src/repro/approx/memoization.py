"""Approximate (fuzzy) memoization with Rumba-style quality management.

Approximate memoization (Paraprox [31]; fuzzy memoization in hardware
[2, 3]) reuses a previously computed result when a new input is *close* to
a cached one.  Its error is governed by how far the query landed from the
reused entry — which means the technique carries its own light-weight
error signal: the *cache distance*.

:class:`MemoizingBackend` implements the technique over any Table 1
kernel (quantized-key direct-mapped table, like the hardware schemes), and
exposes the per-element cache distance as its checker feature.
:class:`MemoizationQualityManager` completes the Rumba recipe: a tree
predictor maps distances to expected error, flagged elements are
re-executed exactly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.base import Application
from repro.approx.base import CostProfile
from repro.errors import ConfigurationError, NotFittedError
from repro.predictors.tree import DecisionTreeErrorPredictor

__all__ = ["MemoizingBackend", "MemoizationQualityManager"]


class MemoizingBackend:
    """Fuzzy memoization of a pure kernel.

    Inputs are normalized against calibrated ranges and quantized to
    ``key_bits`` bits per dimension to form the table key.  A key hit
    reuses the cached output; a miss computes exactly and installs the
    entry.  Coarser keys (fewer bits) reuse more aggressively and err
    more.

    After each call, :attr:`last_distances` holds the per-element
    normalized distance between the query and the input that produced the
    reused entry (zero on misses, which computed exactly) — the natural
    checker feature of this technique.

    :meth:`freeze` turns the table read-only: misses still compute
    exactly but install nothing, making the backend a deterministic pure
    function of its inputs.  Deterministic-replay deployments (the
    serving ensemble) warm the table offline and freeze it; the unfrozen
    default keeps the original adaptive behaviour.
    """

    def __init__(self, app: Application, key_bits: int = 4,
                 calibration_seed: int = 0, n_calibration: int = 1000):
        if not (1 <= key_bits <= 12):
            raise ConfigurationError("key_bits must be in [1, 12]")
        self.app = app
        self.key_bits = key_bits
        self.frozen = False
        rng = np.random.default_rng(calibration_seed)
        sample = np.atleast_2d(np.asarray(app.train_inputs(rng), dtype=float))
        if sample.shape[0] > n_calibration:
            pick = rng.choice(sample.shape[0], n_calibration, replace=False)
            sample = sample[pick]
        self._lo = sample.min(axis=0)
        span = sample.max(axis=0) - self._lo
        self._span = np.where(span == 0.0, 1.0, span)
        # key tuple -> (representative input, output row)
        self._table: Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]] = {}
        self.last_distances: Optional[np.ndarray] = None
        self.hits = 0
        self.misses = 0

    def _keys(self, inputs: np.ndarray) -> np.ndarray:
        levels = (1 << self.key_bits) - 1
        unit = np.clip((inputs - self._lo) / self._span, 0.0, 1.0)
        return np.round(unit * levels).astype(np.int64)

    def features(self, inputs: np.ndarray) -> np.ndarray:
        """Checker features: the normalized inputs (distance is appended
        per call via :attr:`last_distances`)."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        return (inputs - self._lo) / self._span

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        n = inputs.shape[0]
        keys = self._keys(inputs)
        outputs = np.empty((n, self.app.n_outputs))
        distances = np.zeros(n)
        miss_rows = []
        for i in range(n):
            key = tuple(keys[i])
            entry = self._table.get(key)
            if entry is None:
                miss_rows.append(i)
            else:
                cached_input, cached_output = entry
                outputs[i] = cached_output
                distances[i] = float(np.linalg.norm(
                    (inputs[i] - cached_input) / self._span
                ))
                self.hits += 1
        if miss_rows:
            exact = self.app.exact(inputs[miss_rows])
            for row, out in zip(miss_rows, exact):
                outputs[row] = out
                if not self.frozen:
                    self._table[tuple(keys[row])] = (
                        inputs[row].copy(), out.copy()
                    )
            self.misses += len(miss_rows)
        self.last_distances = distances
        return outputs

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def freeze(self) -> "MemoizingBackend":
        """Make the table read-only (misses compute exactly, install nothing)."""
        self.frozen = True
        return self

    # ------------------------------------------------------------------ #
    # Ensemble member surface                                            #
    # ------------------------------------------------------------------ #
    def forward_batch(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``__call__``, copied into ``out`` when one is given."""
        result = self(x)
        if out is None:
            return result
        out[...] = result
        return out

    def cost_profile(self, cost_model) -> CostProfile:
        """Hit-rate-weighted cost from the observed traffic: table
        lookups are nearly free, misses pay the exact kernel (plus lookup
        overhead).  ``cost_model`` is unused; the NPU member needs it.
        """
        hit = self.hit_rate
        rel = hit * 0.05 + (1.0 - hit) * 1.05
        return CostProfile(relative_latency=rel, relative_energy=rel)

    def clone_shard(self) -> "MemoizingBackend":
        """A shard-private backend: fresh counters, independent table.

        A frozen table is shared by reference (read-only); an unfrozen
        clone starts cold so shards never see each other's installs.
        """
        clone = copy.copy(self)
        if not self.frozen:
            clone._table = {}
        clone.hits = 0
        clone.misses = 0
        clone.last_distances = None
        return clone


@dataclass
class _MemoOutcome:
    outputs: np.ndarray
    exact: np.ndarray
    scores: np.ndarray
    recovered: np.ndarray

    @property
    def recovered_fraction(self) -> float:
        return float(self.recovered.mean()) if self.recovered.size else 0.0


class MemoizationQualityManager:
    """Detection + selective re-execution on top of fuzzy memoization.

    The checker's feature vector is [normalized inputs, cache distance];
    the cache distance alone is already a strong error signal, and the
    tree learns how the kernel's sensitivity varies over the input space.
    """

    def __init__(self, app: Application, key_bits: int = 4,
                 threshold: float = 0.05, seed: int = 0):
        if threshold < 0:
            raise ConfigurationError("threshold must be >= 0")
        self.app = app
        self.backend = MemoizingBackend(app, key_bits=key_bits,
                                        calibration_seed=seed)
        self.threshold = threshold
        self.predictor = DecisionTreeErrorPredictor()
        self.seed = seed

    def _features_with_distance(self, inputs: np.ndarray) -> np.ndarray:
        base = self.backend.features(inputs)
        return np.hstack([base, self.backend.last_distances.reshape(-1, 1)])

    def fit(self, n_train: int = 2000) -> "MemoizationQualityManager":
        """Warm the memo table, then train the checker on observed errors.

        The first half of the training data only populates the table (a
        cold table computes everything exactly and shows the checker no
        errors); the second half runs against the warmed table, producing
        the hit-with-distance behaviour the deployment will see.
        """
        rng = np.random.default_rng(self.seed + 1)
        train = np.atleast_2d(
            np.asarray(self.app.train_inputs(rng), dtype=float)
        )[:n_train]
        half = max(train.shape[0] // 2, 1)
        self.backend(train[:half])  # warm the table
        observe = train[half:] if train.shape[0] > half else train
        approx = self.backend(observe)
        feats = self._features_with_distance(observe)
        errors = self.app.element_errors(approx, self.app.exact(observe))
        self.predictor.fit(feats, errors)
        return self

    def process(self, inputs: np.ndarray) -> _MemoOutcome:
        """Memoized execution with detection and selective recovery."""
        if not self.predictor.is_fitted:
            raise NotFittedError("call fit() before process()")
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        approx = self.backend(inputs)
        feats = self._features_with_distance(inputs)
        scores = self.predictor.scores(features=feats)
        recovered = scores > self.threshold
        outputs = approx.copy()
        exact = self.app.exact(inputs)
        outputs[recovered] = exact[recovered]
        return _MemoOutcome(
            outputs=outputs, exact=exact, scores=scores, recovered=recovered
        )
