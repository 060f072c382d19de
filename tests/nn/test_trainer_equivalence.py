"""``RPropTrainer`` against the two-pass reference, byte for byte.

The product trainer shares one forward pass between an epoch's loss and
the next epoch's gradient, writes into buffers it keeps for the run and
updates one flat parameter vector.  None of that may move a bit: the
loss history, the stopping epoch and the trained weights must be the
reference's, on random networks and on the networks the system ships.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import APPLICATION_NAMES, get_application
from repro.approx import ensemble
from repro.approx.npu_backend import train_npu_backend
from repro.nn.mlp import MLP
from repro.nn.trainer import RPropTrainer
from tests.nn.reference_trainer import ReferenceRProp, reference_train


def _assert_same_run(got, want, net, ref_net):
    assert got.train_losses == want.train_losses
    assert got.val_losses == want.val_losses
    assert got.best_epoch == want.best_epoch
    assert got.converged == want.converged
    assert net.get_flat_params().tobytes() == ref_net.get_flat_params().tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_inputs=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    n_outputs=st.integers(1, 3),
    hidden_activation=st.sampled_from(["sigmoid", "tanh", "relu"]),
    output_activation=st.sampled_from(["linear", "sigmoid"]),
    n_rows=st.integers(4, 60),
    val_fraction=st.sampled_from([0.0, 0.25]),
    patience=st.integers(1, 6),
    scale=st.sampled_from([1e-3, 1.0, 40.0]),
)
def test_random_networks_train_to_the_same_bytes(
    seed, n_inputs, hidden, n_outputs, hidden_activation, output_activation,
    n_rows, val_fraction, patience, scale,
):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_rows, n_inputs)) * scale
    y = rng.uniform(0.0, 1.0, size=(n_rows, n_outputs))
    net = MLP(
        (n_inputs, *hidden, n_outputs),
        hidden_activation=hidden_activation,
        output_activation=output_activation,
        rng=np.random.default_rng(seed),
    )
    ref_net = net.copy()
    trainer = RPropTrainer(
        max_epochs=40, patience=patience, val_fraction=val_fraction, seed=seed % 7
    )
    want = reference_train(trainer, ref_net, x, y)
    got = trainer.train(net, x, y)
    _assert_same_run(got, want, net, ref_net)


# Full length where an epoch is cheap, 60 epochs elsewhere: tier-1 stays fast.
_FULL_LENGTH = ("fft", "inversek2j")


@pytest.mark.parametrize("use_rumba_topology", [True, False], ids=["rumba", "npu"])
@pytest.mark.parametrize("name", APPLICATION_NAMES)
def test_shipped_networks_train_to_the_same_bytes(name, use_rumba_topology):
    app = get_application(name)
    budget = dict(max_epochs=600 if name in _FULL_LENGTH else 60, patience=80, seed=0)
    backend, got = train_npu_backend(
        app, use_rumba_topology, trainer=RPropTrainer(**budget), seed=0
    )
    reference, want = train_npu_backend(
        app, use_rumba_topology, trainer=ReferenceRProp(**budget), seed=0
    )
    _assert_same_run(got, want, backend.network, reference.network)


def test_small_ensemble_member_trains_to_the_same_bytes(monkeypatch, fft_app):
    member = ensemble._train_sized_mlp(fft_app, 0.25, 12)
    monkeypatch.setattr(ensemble, "RPropTrainer", ReferenceRProp)
    reference = ensemble._train_sized_mlp(fft_app, 0.25, 12)
    assert (
        member.network.get_flat_params().tobytes()
        == reference.network.get_flat_params().tobytes()
    )
