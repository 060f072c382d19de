"""Offline NN trainers — the "accelerator trainer" of Rumba's Fig. 4.

:class:`RPropTrainer` is resilient backpropagation, the default trainer in
pyBrain (the library the paper used to obtain accelerator outputs).  RProp
is a full-batch method that adapts a per-parameter step size from gradient
sign agreement; it is insensitive to learning-rate choice, which makes the
topology search robust.  It minimizes mean squared error, reports a
training history, and supports an early-stop patience on a validation
split.

An epoch costs one evaluation of the training set: the loss recorded after
an update and the gradient of the next update come from the same forward
pass (:class:`_TrainingPass`), held in buffers that live for the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError, TrainingError
from repro.nn.mlp import MLP

__all__ = ["TrainingResult", "RPropTrainer", "mse"]


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error between two equally-shaped arrays."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ConfigurationError(
            f"shape mismatch in mse: {pred.shape} vs {target.shape}"
        )
    return float(np.mean((pred - target) ** 2))


@dataclass
class TrainingResult:
    """Outcome of a training run.

    Attributes
    ----------
    train_losses:
        MSE on the training set after each epoch.
    val_losses:
        MSE on the validation split (empty when no split was requested).
    best_epoch:
        Epoch index with the lowest validation (or training) loss.
    converged:
        Whether training stopped because the loss plateaued rather than
        because the epoch budget was exhausted.
    """

    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    best_epoch: int = 0
    converged: bool = False

    @property
    def final_loss(self) -> float:
        if not self.train_losses:
            raise TrainingError("training produced no epochs")
        return self.train_losses[-1]

    @property
    def best_loss(self) -> float:
        losses = self.val_losses or self.train_losses
        if not losses:
            raise TrainingError("training produced no epochs")
        return losses[self.best_epoch]


def _column_sums(a: np.ndarray, out: np.ndarray) -> None:
    """``a.sum(axis=0)`` into ``out``, bit for bit, in a third of the time.

    numpy adds the rows of two or more columns in order, and ``einsum``
    does the same without a ufunc call per row; a single column it sums
    pairwise, which ``einsum`` does not.
    """
    if a.shape[1] == 1:
        np.sum(a, axis=0, out=out)
    else:
        np.einsum("ij->j", a, out=out)


class _TrainingPass:
    """Loss and gradient of a network on one fixed batch, from one evaluation.

    Holds one activation, one delta and one scratch buffer per layer for
    the run.  :meth:`forward` evaluates the network into them and returns
    the loss; :meth:`gradients` backpropagates from what that call left
    behind, so it may follow each ``forward`` at most once and only while
    the parameters have not moved.
    """

    def __init__(self, net: MLP, x: np.ndarray, y: np.ndarray):
        self._net, self._x, self._y = net, x, y
        shapes = [(x.shape[0], w.shape[1]) for w in net.weights]
        if y.shape != shapes[-1]:
            raise ConfigurationError(
                f"targets have shape {y.shape}, the network produces {shapes[-1]}"
            )
        self._acts = [np.empty(shape) for shape in shapes]
        self._deltas = [np.empty(shape) for shape in shapes]
        self._scratch = [np.empty(shape) for shape in shapes]

    def forward(self) -> float:
        """Evaluate the batch; returns its mean squared error."""
        out = self._net.forward(self._x, out=self._acts[-1], scratch=self._acts[:-1])
        err = np.subtract(out, self._y, out=self._deltas[-1])
        return float(np.mean(np.square(err, out=self._scratch[-1])))

    def gradients(self, into: List[Tuple[np.ndarray, np.ndarray]]) -> None:
        """Write each layer's ``(weight, bias)`` gradients into ``into``."""
        net = self._net
        # dL/d(out) for MSE with mean over samples *and* outputs.
        self._deltas[-1] *= 2.0 / self._deltas[-1].size
        for layer in range(net.n_layers - 1, -1, -1):
            delta = self._deltas[layer]
            activation = net.activation_for_layer(layer)
            if activation.name != "linear":  # times 1 moves no bit
                delta *= activation.derivative(
                    self._acts[layer], dst=self._scratch[layer]
                )
            w_grad, b_grad = into[layer]
            inp = self._acts[layer - 1] if layer else self._x
            np.matmul(inp.T, delta, out=w_grad)
            _column_sums(delta, out=b_grad)
            if layer:
                np.matmul(delta, net.weights[layer].T, out=self._deltas[layer - 1])


def _split_validation(
    x: np.ndarray, y: np.ndarray, fraction: float, rng: np.random.Generator
):
    """Shuffle and split off a validation fraction."""
    n = x.shape[0]
    idx = rng.permutation(n)
    n_val = int(round(n * fraction))
    val_idx, train_idx = idx[:n_val], idx[n_val:]
    if train_idx.size == 0:
        raise ConfigurationError("validation fraction leaves no training data")
    return x[train_idx], y[train_idx], x[val_idx], y[val_idx]


class RPropTrainer:
    """Resilient backpropagation (iRprop-) trainer.

    Parameters
    ----------
    max_epochs:
        Upper bound on full-batch epochs.
    eta_plus, eta_minus:
        Step-size growth/shrink factors on gradient sign agreement/flip.
    delta_init, delta_min, delta_max:
        Initial and clamped per-parameter step sizes.
    patience:
        Stop after this many epochs with no best-loss improvement.
    val_fraction:
        Fraction of the data held out for early stopping (0 disables).
    tol:
        Absolute loss below which training stops as converged.
    """

    def __init__(
        self,
        max_epochs: int = 300,
        eta_plus: float = 1.2,
        eta_minus: float = 0.5,
        delta_init: float = 0.01,
        delta_min: float = 1e-8,
        delta_max: float = 5.0,
        patience: int = 30,
        val_fraction: float = 0.0,
        tol: float = 1e-10,
        seed: int = 0,
    ):
        if max_epochs <= 0:
            raise ConfigurationError("max_epochs must be positive")
        if patience <= 0:  # else training stops, "converged", after one update
            raise ConfigurationError("patience must be positive")
        if not (eta_plus > 1.0 and 0.0 < eta_minus < 1.0):
            raise ConfigurationError("need eta_plus > 1 and 0 < eta_minus < 1")
        if not 0.0 < delta_min <= delta_init <= delta_max:
            raise ConfigurationError(
                "step sizes must satisfy 0 < delta_min <= delta_init <= delta_max"
            )
        if not (0.0 <= val_fraction < 1.0):
            raise ConfigurationError("val_fraction must be in [0, 1)")
        self.max_epochs = max_epochs
        self.eta_plus = eta_plus
        self.eta_minus = eta_minus
        self.delta_init = delta_init
        self.delta_min = delta_min
        self.delta_max = delta_max
        self.patience = patience
        self.val_fraction = val_fraction
        self.tol = tol
        self.seed = seed

    def train(self, net: MLP, x: np.ndarray, y: np.ndarray) -> TrainingResult:
        """Train ``net`` in place; returns the loss history."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, net.topology.n_inputs)
        if y.ndim == 1:
            y = y.reshape(-1, net.topology.n_outputs)
        rng = np.random.default_rng(self.seed)
        if self.val_fraction > 0.0:
            x_tr, y_tr, x_val, y_val = _split_validation(x, y, self.val_fraction, rng)
        else:
            x_tr, y_tr, x_val, y_val = x, y, None, None

        # One flat vector holds every layer, so an epoch is one update.
        params = net.get_flat_params()
        net.set_flat_params(params)
        step = np.full_like(params, self.delta_init)
        # RProp compares this epoch's gradient with the last one's: two
        # buffers, alternating, never the same storage two epochs running.
        grads = [np.zeros_like(params), np.zeros_like(params)]
        grad_views = [net.layer_views(grad) for grad in grads]
        train_pass = _TrainingPass(net, x_tr, y_tr)
        val_pass = None if x_val is None else _TrainingPass(net, x_val, y_val)

        result = TrainingResult()
        best = np.inf
        best_params = params.copy()
        stall = 0
        train_pass.forward()
        for epoch in range(self.max_epochs):
            this, last = epoch % 2, 1 - epoch % 2
            train_pass.gradients(grad_views[this])
            self._rprop_update(params, grads[this], grads[last], step)
            # Measure *after* the update so the recorded loss corresponds to
            # the parameters that best_params may snapshot below; the same
            # pass feeds the next epoch's gradient.
            loss = train_pass.forward()
            result.train_losses.append(loss)
            monitor = loss
            if val_pass is not None:
                monitor = val_pass.forward()
                result.val_losses.append(monitor)
            if not np.isfinite(monitor):
                # Not a plateau: nan < best is never true, so patience would
                # end the run as converged on the weights it started from.
                net.set_flat_params(best_params)
                raise TrainingError(
                    f"RProp loss became non-finite ({monitor}) at epoch {epoch}"
                )
            if monitor < best - 1e-15:
                best = monitor
                result.best_epoch = epoch
                np.copyto(best_params, params)
                stall = 0
            else:
                stall += 1
            if monitor <= self.tol or stall >= self.patience:
                result.converged = True
                break
        net.set_flat_params(best_params)
        if not np.all(np.isfinite(best_params)):
            raise TrainingError("RProp training diverged to non-finite weights")
        return result

    def _rprop_update(
        self,
        params: np.ndarray,
        grad: np.ndarray,
        prev_grad: np.ndarray,
        delta: np.ndarray,
    ) -> None:
        """iRprop- in-place parameter update."""
        sign = grad * prev_grad
        grow = sign > 0
        shrink = sign < 0
        delta[grow] = np.minimum(delta[grow] * self.eta_plus, self.delta_max)
        delta[shrink] = np.maximum(delta[shrink] * self.eta_minus, self.delta_min)
        # iRprop-: on a sign flip, zero the gradient so no step is taken.
        grad[shrink] = 0.0
        params -= np.sign(grad) * delta
