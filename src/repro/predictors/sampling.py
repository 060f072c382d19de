"""Random and Uniform baseline schemes (paper Sec. 5.1).

These baselines have no detection mechanism: *Random* fixes a random subset
of elements; *Uniform* fixes a uniformly spaced subset.  They model the
quality-sampling strategies of prior work and are what linear/tree
detection is compared against.

Both are expressed as score functions so the common top-``x%`` machinery
applies: Random scores are an rng permutation; Uniform scores are the
van-der-Corput radical-inverse sequence, whose top-``x`` fraction is a
near-uniformly spaced subset for *every* ``x`` simultaneously.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.predictors.base import ErrorPredictor

__all__ = ["RandomPredictor", "UniformPredictor", "radical_inverse"]


def radical_inverse(n: int, base: int = 2) -> np.ndarray:
    """Van der Corput radical-inverse sequence of length ``n`` in [0, 1).

    Index ``i``'s value is ``i`` with its base-``base`` digits mirrored
    around the radix point.  The set ``{i : radical_inverse(i) < x}`` is
    uniformly spread over ``0..n-1`` for any fraction ``x``.
    """
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    if base < 2:
        raise ConfigurationError("base must be at least 2")
    values = np.zeros(n, dtype=float)
    indices = np.arange(n)
    factor = 1.0 / base
    remaining = indices.copy()
    while remaining.any():
        values += (remaining % base) * factor
        remaining //= base
        factor /= base
    return values


class RandomPredictor(ErrorPredictor):
    """Scores are a seeded random shuffle — fixing top-x% fixes a random x%."""

    name = "Random"
    checker_kind = "none"
    is_input_based = False
    needs_fit = False

    def __init__(self, seed: int = 0):
        super().__init__()
        self.seed = seed
        self._invocation = 0

    def scores(self, features=None, approx_outputs=None, true_errors=None):
        n = _infer_length(features, approx_outputs, true_errors)
        rng = np.random.default_rng((self.seed, self._invocation))
        self._invocation += 1
        return rng.random(n)


class UniformPredictor(ErrorPredictor):
    """Scores rank elements so any top fraction is uniformly spaced."""

    name = "Uniform"
    checker_kind = "none"
    is_input_based = False
    needs_fit = False
    online_state = False

    def scores(self, features=None, approx_outputs=None, true_errors=None):
        n = _infer_length(features, approx_outputs, true_errors)
        # Low radical-inverse first => negate so top-x% == uniformly spaced.
        return 1.0 - radical_inverse(n)


def _infer_length(*arrays: Optional[np.ndarray]) -> int:
    for arr in arrays:
        if arr is not None:
            return int(np.asarray(arr).shape[0])
    raise ConfigurationError("cannot infer element count: no arrays provided")
