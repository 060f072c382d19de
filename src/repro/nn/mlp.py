"""Multi-layer perceptron used as the functional model of the NPU.

The NPU accelerator executes a small MLP in place of an annotated kernel.
Table 1 of the paper gives the per-benchmark topologies in the familiar
``in->h1->h2->out`` notation (e.g. ``6->8->4->1`` for kmeans); this module
parses that notation, evaluates the network, and exposes the operation counts
(multiply-adds, activations) that the hardware cost model charges for.

The implementation is deliberately minimal: dense layers, sigmoid hidden
units, linear output — exactly what an 8-PE NPU schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.activations import Activation, get_activation

__all__ = ["Topology", "MLP", "add_bias"]


def add_bias(h: np.ndarray, b: np.ndarray) -> None:
    """``h += b`` on every row of an ``(n, w)`` layer, bit for bit.  numpy
    runs ``n`` inner loops of ``w`` elements, mostly overhead when narrow;
    from 1,024 rows (below, the repeat costs more than it saves) a contiguous
    ``h`` goes as ``(n / k, k * w)`` against ``b`` repeated ``k = gcd(n, 32)``."""
    n, w = h.shape
    k = math.gcd(n, 32) if n >= 1024 and w > 1 and h.flags.c_contiguous else 1
    if k == 1:
        h += b
        return
    rows = h.reshape(n // k, k * w)
    rows += np.repeat(b[None, :], k, axis=0).ravel()  # np.tile, minus its overhead


@dataclass(frozen=True)
class Topology:
    """An MLP topology in the paper's ``in->h->...->out`` notation.

    Attributes
    ----------
    sizes:
        Layer widths including input and output, e.g. ``(6, 8, 4, 1)``.
    """

    sizes: tuple

    def __post_init__(self) -> None:
        if len(self.sizes) < 2:
            raise ConfigurationError(
                f"topology needs at least input and output layers, got {self.sizes}"
            )
        if any(int(s) <= 0 for s in self.sizes):
            raise ConfigurationError(f"layer sizes must be positive, got {self.sizes}")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))

    @classmethod
    def parse(cls, spec: str) -> "Topology":
        """Parse ``"6->8->4->1"`` into a :class:`Topology`."""
        try:
            sizes = tuple(int(part.strip()) for part in spec.split("->"))
        except ValueError as exc:
            raise ConfigurationError(f"malformed topology spec {spec!r}") from exc
        return cls(sizes)

    @property
    def n_inputs(self) -> int:
        return self.sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.sizes[-1]

    @property
    def hidden_sizes(self) -> tuple:
        return self.sizes[1:-1]

    @property
    def n_weights(self) -> int:
        """Total number of weights including biases."""
        return sum((a + 1) * b for a, b in zip(self.sizes[:-1], self.sizes[1:]))

    @property
    def n_multiply_adds(self) -> int:
        """Multiply-add operations per single forward evaluation."""
        return sum(a * b for a, b in zip(self.sizes[:-1], self.sizes[1:]))

    @property
    def n_neurons(self) -> int:
        """Number of non-input neurons (each costs one activation evaluation)."""
        return sum(self.sizes[1:])

    def __str__(self) -> str:
        return "->".join(str(s) for s in self.sizes)


class MLP:
    """A dense feed-forward network with per-layer weights and biases.

    Parameters
    ----------
    topology:
        A :class:`Topology` or a spec string like ``"9->8->1"``.
    hidden_activation, output_activation:
        Activation names; the NPU uses sigmoid hidden layers and a linear
        output layer, which are the defaults.
    rng:
        Seeded generator for reproducible weight initialization.
    """

    def __init__(
        self,
        topology,
        hidden_activation: str = "sigmoid",
        output_activation: str = "linear",
        rng: Optional[np.random.Generator] = None,
    ):
        if isinstance(topology, str):
            topology = Topology.parse(topology)
        if not isinstance(topology, Topology):
            topology = Topology(tuple(topology))
        self.topology = topology
        self._hidden_act: Activation = get_activation(hidden_activation)
        self._output_act: Activation = get_activation(output_activation)
        rng = rng or np.random.default_rng(0)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for n_in, n_out in zip(topology.sizes[:-1], topology.sizes[1:]):
            # Xavier/Glorot initialization keeps sigmoids out of saturation.
            scale = np.sqrt(6.0 / (n_in + n_out))
            self.weights.append(rng.uniform(-scale, scale, size=(n_in, n_out)))
            self.biases.append(np.zeros(n_out))

    @property
    def n_layers(self) -> int:
        """Number of weight layers (== len(topology.sizes) - 1)."""
        return len(self.weights)

    def activation_for_layer(self, layer: int) -> Activation:
        """The activation applied after weight layer ``layer`` (0-based)."""
        return self._output_act if layer == self.n_layers - 1 else self._hidden_act

    def forward(
        self,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
        scratch: Optional[List[np.ndarray]] = None,
    ) -> np.ndarray:
        """Evaluate the network on a batch.

        ``x`` has shape ``(n_samples, n_inputs)`` (a 1-D array is treated as
        a single batch of samples for 1-input networks).  Returns an array of
        shape ``(n_samples, n_outputs)``.

        ``out`` (shape ``(n_samples, n_outputs)``) receives the final layer
        in place, and ``scratch`` supplies one preallocated buffer per
        hidden layer (shape ``(n_samples, layer_width)``); with both, a
        forward pass performs zero interior allocations — every matmul and
        activation writes into caller-owned memory via ``np.matmul(...,
        out=)`` and the activations' in-place path.  Results are numerically
        identical to the allocating path.
        """
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, self.topology.n_inputs)
        if arr.shape[1] != self.topology.n_inputs:
            raise ConfigurationError(
                f"expected {self.topology.n_inputs} inputs, got shape {arr.shape}"
            )
        n = arr.shape[0]
        last = self.n_layers - 1
        h = arr
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            if layer == last and out is not None:
                dst = out
            elif scratch is not None and layer < len(scratch):
                dst = scratch[layer]
            else:
                dst = np.empty((n, w.shape[1]))
            np.matmul(h, w, out=dst)
            add_bias(dst, b)
            h = self.activation_for_layer(layer)(dst, out=dst)
        return h

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def copy(self) -> "MLP":
        """Deep copy of the network (used by the topology search)."""
        clone = MLP(
            self.topology,
            hidden_activation=self._hidden_act.name,
            output_activation=self._output_act.name,
        )
        clone.weights = [w.copy() for w in self.weights]
        clone.biases = [b.copy() for b in self.biases]
        return clone

    def get_flat_params(self) -> np.ndarray:
        """All weights and biases as one flat vector."""
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def layer_views(self, flat: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(weights, biases)`` views of a flat vector laid out
        like :meth:`get_flat_params`."""
        if flat.size != self.topology.n_weights:
            raise ConfigurationError(
                f"expected {self.topology.n_weights} parameters, got {flat.size}"
            )
        views = []
        pos = 0
        for w, b in zip(self.weights, self.biases):
            mid, end = pos + w.size, pos + w.size + b.size
            views.append((flat[pos:mid].reshape(w.shape), flat[mid:end]))
            pos = end
        return views

    def set_flat_params(self, flat: Sequence[float]) -> None:
        """Load parameters from a flat vector (inverse of get_flat_params).

        The layers become views of ``flat`` when it is already a float
        array: writing to it afterwards moves the network, which is how
        the trainer updates every layer in one step.
        """
        views = self.layer_views(np.asarray(flat, dtype=float))
        self.weights = [w for w, _ in views]
        self.biases = [b for _, b in views]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MLP({self.topology})"
