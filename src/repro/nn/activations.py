"""Activation functions for the MLP used as the NPU functional model.

The NPU paper (Esmaeilzadeh et al., MICRO'12) uses sigmoid activations in the
hidden layers and a linear output layer; we provide those plus tanh and ReLU
so topology experiments can explore alternatives.

Each activation is a small value object exposing ``__call__`` and
``derivative``.  ``derivative`` is expressed in terms of the *activation
output* where that is cheaper (sigmoid, tanh), which is what the backprop
trainer expects.  Both take an optional destination buffer and write the
same ufunc sequence into it, so the trainer's per-epoch pass allocates
nothing and matches the allocating path bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "Activation",
    "Sigmoid",
    "Tanh",
    "ReLU",
    "Linear",
    "get_activation",
]


class Activation:
    """Base class for activation functions.

    Subclasses implement :meth:`__call__` mapping pre-activations to
    activations and :meth:`derivative` mapping *activation outputs* to the
    local gradient d(out)/d(pre).
    """

    name: str = "base"

    def __call__(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Map pre-activations to activations.

        When ``out`` is given (it may be ``x`` itself) the result is
        written into it and returned, so batch kernels can run whole
        layers without interior allocations.  Numerically identical to the
        allocating path — the same ufunc sequence either way.
        """
        raise NotImplementedError

    def derivative(
        self, out: np.ndarray, dst: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Local gradient at activation output ``out``, into ``dst`` if given."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class Sigmoid(Activation):
    """Logistic sigmoid, the NPU's hidden-layer activation."""

    name = "sigmoid"

    def __call__(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        # Clip to avoid overflow in exp for very large negative inputs.
        if out is None:
            return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        np.clip(x, -60.0, 60.0, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)
        return out

    def derivative(
        self, out: np.ndarray, dst: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if dst is None:
            return out * (1.0 - out)
        np.subtract(1.0, out, out=dst)
        dst *= out
        return dst


class Tanh(Activation):
    """Hyperbolic tangent activation."""

    name = "tanh"

    def __call__(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if out is None:
            return np.tanh(x)
        return np.tanh(x, out=out)

    def derivative(
        self, out: np.ndarray, dst: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if dst is None:
            return 1.0 - out * out
        np.multiply(out, out, out=dst)
        return np.subtract(1.0, dst, out=dst)


class ReLU(Activation):
    """Rectified linear unit."""

    name = "relu"

    def __call__(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if out is None:
            return np.maximum(x, 0.0)
        return np.maximum(x, 0.0, out=out)

    def derivative(
        self, out: np.ndarray, dst: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if dst is None:
            return (out > 0.0).astype(out.dtype)
        return np.greater(out, 0.0, out=dst)


class Linear(Activation):
    """Identity activation used for output layers (regression)."""

    name = "linear"

    def __call__(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if out is None or out is x:
            return x
        np.copyto(out, x)
        return out

    def derivative(
        self, out: np.ndarray, dst: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if dst is None:
            return np.ones_like(out)
        dst.fill(1.0)
        return dst


_REGISTRY: Dict[str, Activation] = {
    cls.name: cls() for cls in (Sigmoid, Tanh, ReLU, Linear)
}


def get_activation(name: str) -> Activation:
    """Look up an activation instance by name.

    Parameters
    ----------
    name:
        One of ``"sigmoid"``, ``"tanh"``, ``"relu"``, ``"linear"``.

    Raises
    ------
    ConfigurationError
        If the name is not a known activation.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown activation {name!r}; known activations: {known}"
        ) from None
