"""Unit tests for the NPU backend (trained accelerator)."""

import numpy as np
import pytest

from repro.apps import get_application
from repro.approx.npu_backend import NPUBackend, train_npu_backend
from repro.errors import ConfigurationError
from repro.nn.trainer import RPropTrainer


FAST = RPropTrainer(max_epochs=150, patience=25, seed=0)


class TestTrainNpuBackend:
    def test_backend_approximates_kernel(self, fft_app, fft_backend):
        rng = np.random.default_rng(9)
        x = fft_app.test_inputs(rng)[:500]
        approx = fft_backend(x)
        exact = fft_app.exact(x)
        assert approx.shape == exact.shape
        # Approximate but correlated with the exact outputs.
        err = fft_app.output_error(approx, exact)
        assert 0.0 < err < 0.5

    def test_rumba_topology_used_by_default(self, fft_app, fft_backend):
        assert fft_backend.topology == fft_app.rumba_topology

    def test_npu_topology_option(self, fft_app):
        backend, _ = train_npu_backend(
            fft_app, use_rumba_topology=False, trainer=FAST, seed=0
        )
        assert backend.topology == fft_app.npu_topology

    def test_input_projection_for_blackscholes(self):
        app = get_application("blackscholes")
        backend, _ = train_npu_backend(app, trainer=FAST, seed=0)
        rng = np.random.default_rng(2)
        x = app.test_inputs(rng)[:50]
        feats = backend.features(x)
        assert feats.shape == (50, 3)  # Rumba's 3 selected columns
        out = backend(x)
        assert out.shape == (50, 1)

    def test_features_reject_wrong_width(self, fft_backend):
        with pytest.raises(ConfigurationError):
            fft_backend.features(np.ones((4, 3)))

    def test_training_cap_subsamples(self):
        app = get_application("fft")
        backend, result = train_npu_backend(
            app, trainer=FAST, seed=0, n_train_cap=100
        )
        assert backend is not None
        assert result.train_losses  # trained on something

    def test_deterministic_given_seed(self, fft_app):
        a, _ = train_npu_backend(fft_app, trainer=FAST, seed=3)
        b, _ = train_npu_backend(fft_app, trainer=FAST, seed=3)
        x = np.random.default_rng(0).random((20, 1)) * 0.5
        np.testing.assert_array_equal(a(x), b(x))

    def test_bigger_npu_topology_at_least_as_accurate(self, fft_app):
        rumba, _ = train_npu_backend(fft_app, use_rumba_topology=True, seed=0)
        npu, _ = train_npu_backend(fft_app, use_rumba_topology=False, seed=0)
        rng = np.random.default_rng(4)
        x = fft_app.test_inputs(rng)[:1000]
        exact = fft_app.exact(x)
        err_rumba = fft_app.output_error(rumba(x), exact)
        err_npu = fft_app.output_error(npu(x), exact)
        # Table 1's point: the unchecked NPU needs the bigger (more
        # accurate) network; Rumba tolerates the smaller one.
        assert err_npu < err_rumba


class TestFusedScalerFolding:
    def test_fused_matches_unfused_to_1e9(self, fft_app, fft_backend):
        rng = np.random.default_rng(11)
        x = fft_app.test_inputs(rng)[:800]
        fused = fft_backend(x)
        unfused = fft_backend.unfused_call(x)
        np.testing.assert_allclose(fused, unfused, rtol=1e-9, atol=1e-9)

    def test_fused_matches_on_constant_input_column(self):
        # blackscholes' PARSEC data holds columns effectively constant;
        # the scaler maps constant columns specially, and the fold must
        # reproduce that handling.
        from repro.nn.mlp import MLP
        from repro.nn.scaler import MinMaxScaler

        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        x[:, 1] = 2.5  # constant column
        y = np.stack([x[:, 0] + x[:, 2], x[:, 0] * 0.5], axis=1)
        in_scaler = MinMaxScaler().fit(x)
        out_scaler = MinMaxScaler().fit(y)
        network = MLP((3, 4, 2), rng=np.random.default_rng(3))
        backend = NPUBackend(
            network=network, input_scaler=in_scaler,
            output_scaler=out_scaler,
        )
        np.testing.assert_allclose(
            backend(x), backend.unfused_call(x), rtol=1e-9, atol=1e-9
        )

    def test_fused_single_layer_network(self):
        from repro.nn.mlp import MLP
        from repro.nn.scaler import MinMaxScaler

        rng = np.random.default_rng(1)
        x = rng.uniform(1.0, 4.0, size=(64, 2))
        y = x @ np.array([[1.0], [-2.0]])
        in_scaler = MinMaxScaler().fit(x)
        out_scaler = MinMaxScaler().fit(y)
        # No hidden layer: input and output folds hit the same matrix.
        backend = NPUBackend(
            network=MLP((2, 1), rng=np.random.default_rng(0)),
            input_scaler=in_scaler, output_scaler=out_scaler,
        )
        np.testing.assert_allclose(
            backend(x), backend.unfused_call(x), rtol=1e-9, atol=1e-9
        )

    def test_nonlinear_output_falls_back_to_unfused(self):
        from repro.nn.mlp import MLP
        from repro.nn.scaler import MinMaxScaler

        rng = np.random.default_rng(2)
        x = rng.normal(size=(32, 2))
        in_scaler = MinMaxScaler().fit(x)
        out_scaler = MinMaxScaler().fit(np.abs(x[:, :1]))
        backend = NPUBackend(
            network=MLP((2, 3, 1), rng=np.random.default_rng(0),
                        output_activation="sigmoid"),
            input_scaler=in_scaler, output_scaler=out_scaler,
        )
        with pytest.raises(ConfigurationError, match="linear output"):
            backend.fused()
        np.testing.assert_array_equal(backend(x), backend.unfused_call(x))

    def test_refresh_fused_tracks_weight_updates(self, fft_backend):
        rng = np.random.default_rng(13)
        x = rng.uniform(-0.5, 0.5, size=(16, 1))
        before = fft_backend(x)
        original = fft_backend.network.get_flat_params().copy()
        try:
            fft_backend.network.set_flat_params(original * 1.01)
            stale = fft_backend(x)  # cached fold: unchanged values
            np.testing.assert_array_equal(stale, before)
            fft_backend.refresh_fused()
            np.testing.assert_allclose(
                fft_backend(x), fft_backend.unfused_call(x),
                rtol=1e-9, atol=1e-9,
            )
        finally:
            fft_backend.network.set_flat_params(original)
            fft_backend.refresh_fused()
