"""NPU backend — a trained MLP standing in for an annotated kernel.

:class:`NPUBackend` bundles the trained network with its input/output
scalers and (for benchmarks whose Rumba network consumes a column subset,
like blackscholes) the input projection.  Calling the backend on raw kernel
inputs produces the accelerator's approximate outputs in the kernel's own
units — exactly what lands in the output queue of Fig. 4.

:func:`train_npu_backend` is the offline "accelerator trainer" of Fig. 4:
it trains the network on exact kernel input/output pairs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.apps.base import Application
from repro.approx.base import CostProfile
from repro.errors import ConfigurationError
from repro.nn.mlp import MLP, Topology, add_bias
from repro.nn.scaler import MinMaxScaler
from repro.nn.trainer import RPropTrainer, TrainingResult

__all__ = ["NPUBackend", "train_npu_backend"]


@dataclass
class NPUBackend:
    """An approximate kernel realized by a trained network.

    The trained weights are immutable at run time, so shards share the
    instance by reference (:meth:`clone_shard` returns ``self``).

    Attributes
    ----------
    network:
        The trained MLP.
    input_scaler, output_scaler:
        Normalization fitted on the training data.
    input_columns:
        Optional column projection applied to raw kernel inputs before
        scaling (Rumba's reduced-input networks).
    """

    network: MLP
    input_scaler: MinMaxScaler
    output_scaler: MinMaxScaler
    input_columns: Optional[Tuple[int, ...]] = None
    # Lazily built folded weights (see fused()); not part of identity.
    _fused: Optional[Tuple[List[np.ndarray], List[np.ndarray]]] = field(
        default=None, repr=False, compare=False
    )
    # Per-thread hidden-layer activation buffers for the fused forward.
    # Thread-local because the serving layer shares one backend instance
    # across all worker shards (clone_shard shares it by reference).
    _scratch: Optional[threading.local] = field(
        default=None, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # threading.local cannot cross pickle/deepcopy boundaries; the
        # folded weights can, and are cheap either way.
        state = self.__dict__.copy()
        state["_scratch"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._scratch = None

    @property
    def topology(self) -> Topology:
        return self.network.topology

    def features(self, inputs: np.ndarray) -> np.ndarray:
        """Project raw kernel inputs onto the network's input columns."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if self.input_columns is not None:
            inputs = inputs[:, list(self.input_columns)]
        if inputs.shape[1] != self.topology.n_inputs:
            raise ConfigurationError(
                f"backend expects {self.topology.n_inputs} input columns, "
                f"got {inputs.shape[1]}"
            )
        return inputs

    # ------------------------------------------------------------------ #
    # Scaler-folded (fused) evaluation                                   #
    # ------------------------------------------------------------------ #
    def fused(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Folded ``(weights, biases)`` with both scalers absorbed.

        The input scaler's per-column affine map is folded into the first
        layer (``x @ (a·W0) + (c @ W0 + b0)`` equals ``transform(x) @ W0 +
        b0``) and, because the output layer is linear, the output scaler's
        inverse map into the last (``h @ (W·s) + (b·s + t)``).  Each
        invocation therefore skips two full-array normalization passes
        while producing the same values to ~1e-9.  Built lazily and cached:
        trained weights are immutable at run time.
        """
        if self._fused is None:
            if self.network.activation_for_layer(
                self.network.n_layers - 1
            ).name != "linear":
                raise ConfigurationError(
                    "output-scaler folding requires a linear output layer"
                )
            a_in, c_in = self.input_scaler.transform_affine()
            s_out, t_out = self.output_scaler.inverse_affine()
            weights = [w.copy() for w in self.network.weights]
            biases = [b.copy() for b in self.network.biases]
            # Input fold (uses the original first-layer weights).
            biases[0] = c_in @ weights[0] + biases[0]
            weights[0] = a_in[:, None] * weights[0]
            # Output fold (correct even when first and last coincide).
            biases[-1] = biases[-1] * s_out + t_out
            weights[-1] = weights[-1] * s_out[None, :]
            object.__setattr__(self, "_fused", (weights, biases))
        return self._fused

    def _hidden_scratch(
        self, n: int, weights: List[np.ndarray]
    ) -> List[np.ndarray]:
        """Per-thread hidden-layer buffers sized for an ``n``-row batch.

        Reused across invocations with the same batch size, so a
        steady-state serving batch runs the whole fused forward with a
        single interior allocation (the output array, which escapes into
        the invocation record and must be fresh).
        """
        tls = self._scratch
        if tls is None:
            tls = threading.local()
            object.__setattr__(self, "_scratch", tls)
        cached = getattr(tls, "bufs", None)
        if cached is None or cached[0] != n:
            cached = (n, [np.empty((n, w.shape[1])) for w in weights[:-1]])
            tls.bufs = cached
        return cached[1]

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        """Approximate kernel outputs for raw kernel inputs, ``(n, out)``.

        Uses the scaler-folded network (two fewer full-array passes than
        :meth:`unfused_call`) with preallocated per-layer activation
        buffers — ``np.matmul(..., out=)`` plus in-place activations, the
        same kernel :meth:`repro.nn.mlp.MLP.forward` exposes via its
        ``out=``/``scratch=`` parameters.  Falls back to the unfused path
        for networks whose output layer is not linear.
        """
        return self.forward_batch(inputs)

    def forward_batch(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Fused batch evaluation writing the final layer into ``out``.

        The hidden layers run in the per-thread scratch buffers and the
        output layer lands directly in the caller's array, so routing a
        sub-batch through this backend costs zero interior allocations
        beyond the (cached) scratch.
        """
        try:
            weights, biases = self.fused()
        except ConfigurationError:
            result = self.unfused_call(x)
            if out is None:
                return result
            out[...] = result
            return out
        arr = self.features(x)
        n = arr.shape[0]
        bufs = self._hidden_scratch(n, weights)
        last = len(weights) - 1
        h = arr
        for layer, (w, b) in enumerate(zip(weights, biases)):
            if layer == last:
                dst = out if out is not None else np.empty((n, w.shape[1]))
            else:
                dst = bufs[layer]
            np.matmul(h, w, out=dst)
            add_bias(dst, b)
            h = self.network.activation_for_layer(layer)(dst, out=dst)
        return h

    def unfused_call(self, inputs: np.ndarray) -> np.ndarray:
        """The reference evaluation path: scale, forward, inverse-scale."""
        feats = self.features(inputs)
        scaled = self.input_scaler.transform(feats)
        raw_out = self.network.forward(scaled)
        return self.output_scaler.inverse_transform(raw_out)

    # ------------------------------------------------------------------ #
    # Ensemble member surface                                            #
    # ------------------------------------------------------------------ #
    def cost_profile(self, cost_model) -> CostProfile:
        """NPU invocation cost, relative to the exact CPU kernel, from
        the :class:`~repro.core.costs.CostModel`'s hardware models
        (per-invocation NPU cycles/energy versus one exact CPU iteration).
        """
        cycles = cost_model.npu.invocation_cycles(self.topology)
        energy = cost_model.npu.invocation_energy_pj(self.topology)
        return CostProfile(
            relative_latency=cycles / cost_model.cpu_iteration_cycles(),
            relative_energy=energy / cost_model.cpu_iteration_energy_pj(),
            invocation_cycles=cycles,
        )

    def clone_shard(self) -> "NPUBackend":
        """Trained weights are immutable at run time: share by reference."""
        return self


def train_npu_backend(
    app: Application,
    use_rumba_topology: bool = True,
    trainer: Optional[RPropTrainer] = None,
    seed: int = 0,
    n_train_cap: Optional[int] = 4000,
    topology: Optional[Topology] = None,
) -> Tuple[NPUBackend, TrainingResult]:
    """Offline accelerator training for a benchmark (Fig. 4, first trainer).

    Generates the Table 1 training set, computes exact kernel outputs, and
    fits either the Rumba topology (default) or the larger unchecked-NPU
    topology.  ``n_train_cap`` subsamples very large training sets (image
    benchmarks) to keep offline training fast.  ``topology`` replaces the
    chosen Table 1 topology with one of the same input and output widths
    (the ensemble's width-scaled siblings).
    """
    rng = np.random.default_rng(seed)
    x_train = np.atleast_2d(np.asarray(app.train_inputs(rng), dtype=float))
    if n_train_cap is not None and x_train.shape[0] > n_train_cap:
        pick = rng.choice(x_train.shape[0], size=n_train_cap, replace=False)
        x_train = x_train[pick]
    y_train = app.exact(x_train)

    if topology is None:
        topology = app.rumba_topology if use_rumba_topology else app.npu_topology
    columns = app.rumba_input_columns if use_rumba_topology else None
    feats = x_train if columns is None else x_train[:, list(columns)]
    if feats.shape[1] != topology.n_inputs:
        raise ConfigurationError(
            f"{app.name}: training features have {feats.shape[1]} columns "
            f"but topology {topology} expects {topology.n_inputs}"
        )

    input_scaler = MinMaxScaler()
    output_scaler = MinMaxScaler()
    x_scaled = input_scaler.fit_transform(feats)
    y_scaled = output_scaler.fit_transform(y_train)

    network = MLP(topology, rng=np.random.default_rng(seed))
    trainer = trainer or RPropTrainer(max_epochs=600, patience=80, seed=seed)
    result = trainer.train(network, x_scaled, y_scaled)
    backend = NPUBackend(
        network=network,
        input_scaler=input_scaler,
        output_scaler=output_scaler,
        input_columns=columns,
    )
    return backend, result
