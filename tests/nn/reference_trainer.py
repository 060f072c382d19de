"""Two-pass reference for ``RPropTrainer.train``.

Tests only.  This is the trainer as it stood before the training pass
moved into caller-owned buffers: every epoch runs the allocating
``forward_trace`` for the gradient and then again for the loss,
``_backprop_gradients`` builds fresh gradient arrays, and each layer's
weights and biases get their own iRprop- update.  The product trainer
is pinned to it byte for byte — losses, stopping epoch and the final
weights.

The forward pass is frozen here too — a plain broadcast bias add and
the sigmoid as ``frozen_sigmoid`` writes it — so a change to
``MLP.forward`` or to an activation is checked against this, not
followed by it.
"""

import numpy as np

from repro.errors import TrainingError
from repro.nn.mlp import MLP
from repro.nn.trainer import RPropTrainer, TrainingResult, _split_validation, mse


def frozen_sigmoid(x: np.ndarray) -> np.ndarray:
    """The sigmoid with both-sided clipping, the formula the trainer shipped with."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def forward_trace(net: MLP, x: np.ndarray):
    """``(output, [input, layer 1, ..., output])`` through the allocating path."""
    activations = [np.asarray(x, dtype=float)]
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = activations[-1] @ w + b
        activation = net.activation_for_layer(layer)
        if activation.name == "sigmoid":
            activations.append(frozen_sigmoid(pre))
        else:
            activations.append(activation(pre))
    return activations[-1], activations


def backprop_gradients(net: MLP, x: np.ndarray, y: np.ndarray):
    """Return (weight_grads, bias_grads, batch_mse) for one batch."""
    out, trace = forward_trace(net, x)
    target = np.asarray(y, dtype=float)
    err = out - target
    loss = float(np.mean(err**2))
    # dL/d(out) for MSE with mean over samples *and* outputs.
    delta = (2.0 / err.size) * err * net.activation_for_layer(net.n_layers - 1).derivative(out)
    w_grads = [np.empty(0)] * net.n_layers
    b_grads = [np.empty(0)] * net.n_layers
    for layer in range(net.n_layers - 1, -1, -1):
        inp = trace[layer]
        w_grads[layer] = inp.T @ delta
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * net.activation_for_layer(
                layer - 1
            ).derivative(trace[layer])
    return w_grads, b_grads, loss


def _rprop_update(trainer: RPropTrainer, params, grad, prev_grad, delta) -> None:
    sign = grad * prev_grad
    grow = sign > 0
    shrink = sign < 0
    delta[grow] = np.minimum(delta[grow] * trainer.eta_plus, trainer.delta_max)
    delta[shrink] = np.maximum(delta[shrink] * trainer.eta_minus, trainer.delta_min)
    grad[shrink] = 0.0
    params -= np.sign(grad) * delta


def reference_train(
    trainer: RPropTrainer, net: MLP, x: np.ndarray, y: np.ndarray
) -> TrainingResult:
    """Train ``net`` in place with ``trainer``'s settings, the old way."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, net.topology.n_inputs)
    if y.ndim == 1:
        y = y.reshape(-1, net.topology.n_outputs)
    rng = np.random.default_rng(trainer.seed)
    if trainer.val_fraction > 0.0:
        x_tr, y_tr, x_val, y_val = _split_validation(x, y, trainer.val_fraction, rng)
    else:
        x_tr, y_tr, x_val, y_val = x, y, None, None

    deltas_w = [np.full_like(w, trainer.delta_init) for w in net.weights]
    deltas_b = [np.full_like(b, trainer.delta_init) for b in net.biases]
    prev_gw = [np.zeros_like(w) for w in net.weights]
    prev_gb = [np.zeros_like(b) for b in net.biases]

    result = TrainingResult()
    best = np.inf
    best_params = net.get_flat_params()
    stall = 0
    for epoch in range(trainer.max_epochs):
        gw, gb, _ = backprop_gradients(net, x_tr, y_tr)
        for i in range(net.n_layers):
            _rprop_update(trainer, net.weights[i], gw[i], prev_gw[i], deltas_w[i])
            _rprop_update(trainer, net.biases[i], gb[i], prev_gb[i], deltas_b[i])
            prev_gw[i], prev_gb[i] = gw[i], gb[i]
        loss = mse(forward_trace(net, x_tr)[0], y_tr)
        result.train_losses.append(loss)
        if x_val is not None:
            val_loss = mse(forward_trace(net, x_val)[0], y_val)
            result.val_losses.append(val_loss)
            monitor = val_loss
        else:
            monitor = loss
        if monitor < best - 1e-15:
            best = monitor
            result.best_epoch = epoch
            best_params = net.get_flat_params()
            stall = 0
        else:
            stall += 1
        if monitor <= trainer.tol or stall >= trainer.patience:
            result.converged = True
            break
    net.set_flat_params(best_params)
    if not np.all(np.isfinite(net.get_flat_params())):
        raise TrainingError("RProp training diverged to non-finite weights")
    return result


class ReferenceRProp(RPropTrainer):
    """An ``RPropTrainer`` whose ``train`` is the two-pass reference, for
    code that takes a trainer (``train_npu_backend``)."""

    def train(self, net: MLP, x: np.ndarray, y: np.ndarray) -> TrainingResult:
        return reference_train(self, net, x, y)
