"""Unit tests for the RProp trainer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrainingError
from repro.nn.mlp import MLP
from repro.nn.trainer import RPropTrainer, _TrainingPass
from tests.nn.reference_trainer import mse


def _toy_regression(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    y = 0.5 + 0.3 * np.sin(2 * np.pi * x)
    return x, y


@pytest.fixture
def forward_rows(monkeypatch):
    """Row count of every batch ``MLP.forward`` evaluates, in call order."""
    rows = []
    forward = MLP.forward

    def counting(self, inputs, *args, **kwargs):
        rows.append(inputs.shape[0])
        return forward(self, inputs, *args, **kwargs)

    monkeypatch.setattr(MLP, "forward", counting)
    return rows


class TestMse:
    def test_zero_for_identical(self):
        a = np.ones((4, 2))
        assert mse(a, a) == 0.0

    def test_value(self):
        assert mse(np.array([[1.0]]), np.array([[3.0]])) == pytest.approx(4.0)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            mse(np.ones((2, 1)), np.ones((3, 1)))


def _best_loss(result):
    """The monitored loss at the epoch the trainer kept."""
    return (result.val_losses or result.train_losses)[result.best_epoch]


class TestRPropTrainer:
    def test_loss_decreases(self):
        x, y = _toy_regression()
        net = MLP("1->8->1", rng=np.random.default_rng(0))
        initial = mse(net.forward(x), y)
        result = RPropTrainer(max_epochs=200, seed=0).train(net, x, y)
        assert result.train_losses[-1] < initial
        assert _best_loss(result) < 0.05

    def test_history_recorded(self):
        x, y = _toy_regression(50)
        net = MLP("1->4->1")
        result = RPropTrainer(max_epochs=30, patience=1000).train(net, x, y)
        assert len(result.train_losses) == 30

    def test_early_stop_on_patience(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([[0.0], [1.0]])
        net = MLP("1->2->1")
        result = RPropTrainer(max_epochs=5000, patience=10).train(net, x, y)
        assert result.converged
        assert len(result.train_losses) < 5000

    def test_validation_split(self):
        x, y = _toy_regression(100)
        net = MLP("1->4->1")
        result = RPropTrainer(max_epochs=40, val_fraction=0.25).train(net, x, y)
        assert len(result.val_losses) == len(result.train_losses)

    def test_best_params_restored(self):
        x, y = _toy_regression(100)
        net = MLP("1->8->1", rng=np.random.default_rng(1))
        result = RPropTrainer(max_epochs=150, patience=30, seed=1).train(net, x, y)
        final = mse(net.forward(x), y)
        assert final == pytest.approx(min(result.train_losses), rel=1e-6)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            RPropTrainer(max_epochs=0)
        with pytest.raises(ConfigurationError):
            RPropTrainer(val_fraction=1.0)

    @pytest.mark.parametrize("patience", [0, -3])
    def test_patience_must_be_positive(self, patience):
        # Before: stall >= patience held after epoch 0, and a single
        # update came back as converged=True.
        with pytest.raises(ConfigurationError, match="patience"):
            RPropTrainer(patience=patience)

    @pytest.mark.parametrize("eta_plus", [1.0, 0.9, float("nan")])
    def test_eta_plus_must_exceed_one(self, eta_plus):
        with pytest.raises(ConfigurationError, match="eta_plus"):
            RPropTrainer(eta_plus=eta_plus)

    @pytest.mark.parametrize("eta_minus", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_eta_minus_must_be_in_the_open_unit_interval(self, eta_minus):
        with pytest.raises(ConfigurationError, match="eta_minus"):
            RPropTrainer(eta_minus=eta_minus)

    @pytest.mark.parametrize("delta_min", [0.0, -1e-8])
    def test_delta_min_must_be_positive(self, delta_min):
        with pytest.raises(ConfigurationError, match="delta_min"):
            RPropTrainer(delta_min=delta_min)

    @pytest.mark.parametrize("steps", [
        dict(delta_init=1e-9),                 # below delta_min
        dict(delta_init=6.0),                  # above delta_max
        dict(delta_max=1e-9),                  # max below min
        dict(delta_init=0.5, delta_max=0.1),   # init above max
    ])
    def test_step_sizes_must_be_ordered(self, steps):
        with pytest.raises(ConfigurationError, match="delta_init"):
            RPropTrainer(**steps)

    def test_boundary_settings_are_accepted(self):
        RPropTrainer(patience=1, eta_plus=1.0001, eta_minus=0.9999,
                     delta_min=0.01, delta_init=0.01, delta_max=0.01)

    def test_multi_output(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(150, 2))
        y = np.column_stack([x.sum(axis=1), x[:, 0] - x[:, 1]])
        net = MLP("2->6->2", rng=rng)
        result = RPropTrainer(max_epochs=300, patience=50).train(net, x, y)
        assert _best_loss(result) < 0.05

    def test_target_shape_mismatch(self):
        x, _ = _toy_regression(20)
        with pytest.raises(ConfigurationError):
            RPropTrainer(max_epochs=5).train(MLP("1->2->2"), x, np.zeros((20, 1)))

    def test_one_training_set_pass_per_epoch_plus_one(self, forward_rows):
        x, y = _toy_regression(40)
        result = RPropTrainer(max_epochs=25, patience=1000).train(MLP("1->3->1"), x, y)
        assert len(result.train_losses) == 25
        assert forward_rows == [40] * 26

    def test_validation_costs_one_more_pass_per_epoch(self, forward_rows):
        x, y = _toy_regression(40)
        result = RPropTrainer(max_epochs=12, patience=1000, val_fraction=0.25).train(
            MLP("1->3->1"), x, y
        )
        assert len(result.train_losses) == 12
        assert forward_rows.count(30) == 13
        assert forward_rows.count(10) == 12
        assert len(forward_rows) == 25


class TestNonFiniteLoss:
    """A loss that is not a number is a failure, never a plateau."""

    def test_nan_target_raises(self):
        x, y = _toy_regression(50)
        y[7, 0] = np.nan
        net = MLP("1->4->1")
        with pytest.raises(TrainingError, match="non-finite"):
            RPropTrainer(max_epochs=100, patience=5).train(net, x, y)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_input_raises(self):
        x, y = _toy_regression(50)
        x[3, 0] = 1e200  # squared error of a relu network overflows to inf
        net = MLP("1->4->1", hidden_activation="relu")
        with pytest.raises(TrainingError, match="non-finite"):
            RPropTrainer(max_epochs=100, patience=5).train(net, x, y)

    def test_nan_in_validation_split_raises(self):
        x, y = _toy_regression(40)
        y[:, 0] = np.nan
        with pytest.raises(TrainingError, match="non-finite"):
            RPropTrainer(max_epochs=100, patience=5, val_fraction=0.25).train(
                MLP("1->4->1"), x, y
            )


def _numeric_gradient(net, x, y, h=1e-6):
    """Central finite differences of the pass's own loss, one parameter at a time."""
    params = net.get_flat_params()
    net.set_flat_params(params)
    loss = _TrainingPass(net, x, y).forward
    numeric = np.empty_like(params)
    for i in range(params.size):
        keep = params[i]
        params[i] = keep + h
        up = loss()
        params[i] = keep - h
        down = loss()
        params[i] = keep
        numeric[i] = (up - down) / (2 * h)
    return numeric


class TestGradientCheck:
    """The pass's analytic gradients against finite differences of its loss."""

    @pytest.mark.parametrize("output", ["linear", "sigmoid", "tanh"])
    @pytest.mark.parametrize("hidden", ["sigmoid", "tanh", "relu", "linear"])
    @pytest.mark.parametrize("topology", ["3->4->2", "2->3->3->1", "2->1"])
    def test_weight_and_bias_gradients(self, topology, hidden, output):
        rng = np.random.default_rng(11)
        net = MLP(topology, hidden_activation=hidden, output_activation=output, rng=rng)
        for b in net.biases:  # off zero, and relu units off their kink
            b[:] = rng.uniform(0.2, 0.6, size=b.shape)
        x = rng.uniform(-1.0, 1.0, size=(17, net.topology.n_inputs))
        y = rng.uniform(0.0, 1.0, size=(17, net.topology.n_outputs))
        numeric = _numeric_gradient(net, x, y)

        analytic = np.zeros_like(numeric)
        train_pass = _TrainingPass(net, x, y)
        train_pass.forward()
        train_pass.gradients(net.layer_views(analytic))
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)
        assert np.any(np.abs(numeric) > 1e-4)  # not a check of zero against zero
