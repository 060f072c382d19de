"""Feature scaling for NN training.

The NPU maps arbitrary kernel signatures onto a small sigmoid MLP, which
trains poorly on un-normalized data.  :class:`MinMaxScaler` maps each column
into a target interval (default ``[0, 1]``) and can invert the mapping, which
the NPU backend uses to de-normalize accelerator outputs before they are
committed to the output queue.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import NotFittedError

__all__ = ["MinMaxScaler"]


def _as_2d(x: np.ndarray) -> np.ndarray:
    """Coerce ``x`` to a 2-D float array with samples on axis 0."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


class MinMaxScaler:
    """Scale columns linearly into ``feature_range``.

    Degenerate (constant) columns map to the midpoint of the range rather
    than producing division-by-zero artifacts.
    """

    def __init__(self, feature_range: Tuple[float, float] = (0.0, 1.0)):
        lo, hi = feature_range
        if not hi > lo:
            raise ValueError(f"feature_range must be increasing, got {feature_range}")
        self.feature_range = (float(lo), float(hi))
        self._data_min: Optional[np.ndarray] = None
        self._data_span: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        return self._data_min is not None

    def fit(self, x: np.ndarray) -> "MinMaxScaler":
        arr = _as_2d(x)
        self._data_min = arr.min(axis=0)
        span = arr.max(axis=0) - self._data_min
        # Constant columns: use span 1 so they map to range-low + 0, then the
        # midpoint shift in transform keeps them centred.
        self._data_span = np.where(span == 0.0, 1.0, span)
        self._constant = span == 0.0
        return self

    def state(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The fitted ``(data_min, data_span, constant)`` column arrays."""
        if not self.is_fitted:
            raise NotFittedError("MinMaxScaler.state called before fit")
        return self._data_min, self._data_span, self._constant

    @classmethod
    def from_state(cls, data_min: np.ndarray, data_span: np.ndarray,
                   constant: np.ndarray) -> "MinMaxScaler":
        """A default-range scaler fitted to :meth:`state`'s arrays."""
        scaler = cls()
        scaler._data_min, scaler._data_span = data_min, data_span
        scaler._constant = constant
        return scaler

    def transform(self, x: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise NotFittedError("MinMaxScaler.transform called before fit")
        arr = _as_2d(x)
        lo, hi = self.feature_range
        unit = (arr - self._data_min) / self._data_span
        unit = np.where(self._constant, 0.5, unit)
        return lo + unit * (hi - lo)

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, y: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise NotFittedError("MinMaxScaler.inverse_transform called before fit")
        arr = _as_2d(y)
        lo, hi = self.feature_range
        unit = (arr - lo) / (hi - lo)
        unit = np.where(self._constant, 0.0, unit)
        return unit * self._data_span + self._data_min

    def transform_affine(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-column ``(scale, offset)`` with ``transform(x) == x*scale + offset``.

        Constant columns get scale 0 (they map to the range midpoint
        unconditionally, matching :meth:`transform`).  This is what lets the
        NPU backend fold the input normalization into the first MLP layer.
        """
        if not self.is_fitted:
            raise NotFittedError("MinMaxScaler.transform_affine called before fit")
        lo, hi = self.feature_range
        scale = np.where(self._constant, 0.0, (hi - lo) / self._data_span)
        offset = np.where(
            self._constant,
            lo + 0.5 * (hi - lo),
            lo - self._data_min * scale,
        )
        return scale, offset

    def inverse_affine(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-column ``(scale, offset)`` with ``inverse_transform(y) == y*scale + offset``.

        Constant columns get scale 0 and map straight back to their fitted
        value, matching :meth:`inverse_transform`.
        """
        if not self.is_fitted:
            raise NotFittedError("MinMaxScaler.inverse_affine called before fit")
        lo, hi = self.feature_range
        scale = np.where(self._constant, 0.0, self._data_span / (hi - lo))
        offset = np.where(
            self._constant, self._data_min, self._data_min - lo * scale
        )
        return scale, offset

