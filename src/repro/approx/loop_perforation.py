"""Loop perforation (Agarwal et al.) — the software approximation used by
the mosaic case study (paper Sec. 2.1, Challenge II, Fig. 3).

Loop perforation skips loop iterations *randomly* or *uniformly* and scales
the result accordingly.  For a reduction such as an average, skipping
iterations is sampling: the approximate average is computed over the subset
of iterations that survive perforation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["perforation_mask", "perforated_mean"]


def perforation_mask(
    n: int,
    skip_rate: float,
    mode: str = "uniform",
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Boolean mask of iterations that *execute* under perforation.

    Parameters
    ----------
    n:
        Loop trip count.
    skip_rate:
        Fraction of iterations to drop, in [0, 1).
    mode:
        ``"uniform"`` keeps every k-th iteration (the compiler's strided
        perforation); ``"random"`` drops a random subset.
    rng:
        Required for ``"random"`` mode.
    """
    if n <= 0:
        raise ConfigurationError("trip count must be positive")
    if not (0.0 <= skip_rate < 1.0):
        raise ConfigurationError("skip_rate must be in [0, 1)")
    keep_fraction = 1.0 - skip_rate
    if mode == "uniform":
        stride = max(int(round(1.0 / keep_fraction)), 1)
        mask = np.zeros(n, dtype=bool)
        mask[::stride] = True
        return mask
    if mode == "random":
        if rng is None:
            raise ConfigurationError("random perforation needs an rng")
        n_keep = max(int(round(n * keep_fraction)), 1)
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=n_keep, replace=False)] = True
        return mask
    raise ConfigurationError(f"unknown perforation mode {mode!r}")


def perforated_mean(
    values: np.ndarray,
    skip_rate: float,
    mode: str = "uniform",
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Mean of ``values`` computed over the surviving iterations only."""
    values = np.asarray(values, dtype=float).ravel()
    mask = perforation_mask(values.size, skip_rate, mode=mode, rng=rng)
    return float(values[mask].mean())
