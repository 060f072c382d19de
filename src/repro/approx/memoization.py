"""Approximate (fuzzy) memoization: the serving ensemble's ``memo`` member.

Approximate memoization (Paraprox [31]; fuzzy memoization in hardware
[2, 3]) reuses a previously computed result when a new input is *close* to
a cached one.  :class:`MemoizingBackend` implements the technique over any
Table 1 kernel (quantized-key direct-mapped table, like the hardware
schemes).
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.base import Application
from repro.approx.base import CostProfile
from repro.errors import ConfigurationError

__all__ = ["MemoizingBackend"]


class MemoizingBackend:
    """Fuzzy memoization of a pure kernel.

    Inputs are normalized against calibrated ranges and quantized to
    ``key_bits`` bits per dimension to form the table key.  A key hit
    reuses the cached output; a miss computes exactly and installs the
    entry.  Coarser keys (fewer bits) reuse more aggressively and err
    more.

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
        # key tuple -> output row
        self._table: Dict[Tuple[int, ...], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def _keys(self, inputs: np.ndarray) -> np.ndarray:
        levels = (1 << self.key_bits) - 1
        unit = np.clip((inputs - self._lo) / self._span, 0.0, 1.0)
        return np.round(unit * levels).astype(np.int64)

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        n = inputs.shape[0]
        keys = self._keys(inputs)
        outputs = np.empty((n, self.app.n_outputs))
        miss_rows = []
        for i in range(n):
            cached = self._table.get(tuple(keys[i]))
            if cached is None:
                miss_rows.append(i)
            else:
                outputs[i] = cached
                self.hits += 1
        if miss_rows:
            exact = self.app.exact(inputs[miss_rows])
            for row, out in zip(miss_rows, exact):
                outputs[row] = out
                if not self.frozen:
                    self._table[tuple(keys[row])] = out.copy()
            self.misses += len(miss_rows)
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
        return clone
