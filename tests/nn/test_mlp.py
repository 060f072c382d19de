"""Unit tests for the MLP and topology parsing."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.mlp import MLP, Topology, add_bias
from tests.nn.reference_trainer import forward_trace


class TestTopology:
    def test_parse(self):
        topo = Topology.parse("6->8->4->1")
        assert topo.sizes == (6, 8, 4, 1)
        assert topo.n_inputs == 6
        assert topo.n_outputs == 1
        assert topo.hidden_sizes == (8, 4)

    def test_str_roundtrip(self):
        spec = "18->32->2->2"
        assert str(Topology.parse(spec)) == spec

    def test_weight_count(self):
        topo = Topology.parse("2->3->1")
        # (2+1)*3 + (3+1)*1 = 13
        assert topo.n_weights == 13

    def test_multiply_adds(self):
        topo = Topology.parse("2->3->1")
        assert topo.n_multiply_adds == 2 * 3 + 3 * 1

    def test_n_neurons_excludes_inputs(self):
        assert Topology.parse("9->8->1").n_neurons == 9

    def test_malformed_spec(self):
        with pytest.raises(ConfigurationError):
            Topology.parse("6->x->1")

    def test_too_few_layers(self):
        with pytest.raises(ConfigurationError):
            Topology((4,))

    def test_nonpositive_layer(self):
        with pytest.raises(ConfigurationError):
            Topology((4, 0, 1))


class TestMLP:
    def test_forward_shapes(self, rng):
        net = MLP("3->5->2", rng=rng)
        out = net.forward(rng.normal(size=(7, 3)))
        assert out.shape == (7, 2)

    def test_accepts_spec_string_and_tuple(self):
        assert MLP("2->2->1").topology == MLP((2, 2, 1)).topology

    def test_wrong_input_width_raises(self, rng):
        net = MLP("3->2->1")
        with pytest.raises(ConfigurationError):
            net.forward(rng.normal(size=(5, 4)))

    def test_deterministic_given_seed(self):
        a = MLP("2->4->1", rng=np.random.default_rng(7))
        b = MLP("2->4->1", rng=np.random.default_rng(7))
        x = np.random.default_rng(0).normal(size=(10, 2))
        np.testing.assert_array_equal(a(x), b(x))

    def test_linear_output_not_saturated(self, rng):
        net = MLP("1->2->1", rng=rng)
        # Force large weights in the output layer: linear output can exceed 1.
        net.weights[-1][:] = 100.0
        out = net.forward(np.array([[0.5]]))
        assert abs(out[0, 0]) > 1.0

    def test_flat_params_roundtrip(self, rng):
        net = MLP("3->4->2", rng=rng)
        flat = net.get_flat_params()
        assert flat.shape == (net.topology.n_weights,)
        clone = MLP("3->4->2")
        clone.set_flat_params(flat)
        x = rng.normal(size=(6, 3))
        np.testing.assert_allclose(clone(x), net(x))

    def test_set_flat_params_wrong_size(self):
        net = MLP("2->2->1")
        with pytest.raises(ConfigurationError):
            net.set_flat_params(np.zeros(3))

    def test_copy_is_independent(self, rng):
        net = MLP("2->3->1", rng=rng)
        clone = net.copy()
        clone.weights[0][:] = 0.0
        assert not np.array_equal(net.weights[0], clone.weights[0])

    def test_forward_trace_layers(self, rng):
        # The trainer's oracle keeps the allocating trace; it must agree
        # with the in-place path bit for bit.
        net = MLP("2->3->4->1", rng=rng)
        x = rng.normal(size=(5, 2))
        out, trace = forward_trace(net, x)
        assert len(trace) == 4  # input + 3 layers
        np.testing.assert_array_equal(trace[-1], out)
        hidden = [np.empty((5, 3)), np.empty((5, 4))]
        np.testing.assert_array_equal(net.forward(x, scratch=hidden), out)
        for buf, layer in zip(hidden, trace[1:]):
            np.testing.assert_array_equal(buf, layer)

    def test_hidden_sigmoid_bounded(self, rng):
        net = MLP("2->3->1", rng=rng)
        hidden = np.empty((50, 3))
        net.forward(rng.normal(size=(50, 2)) * 100, scratch=[hidden])
        assert np.all(hidden >= 0.0) and np.all(hidden <= 1.0)

    def test_set_flat_params_makes_layers_views(self, rng):
        net = MLP("2->3->1", rng=rng)
        flat = net.get_flat_params()
        net.set_flat_params(flat)
        flat += 1.0
        np.testing.assert_array_equal(net.get_flat_params(), flat)
        assert all(np.shares_memory(w, flat) for w in net.weights + net.biases)

    def test_activation_for_layer(self):
        net = MLP("2->3->1")
        assert net.activation_for_layer(0).name == "sigmoid"
        assert net.activation_for_layer(net.n_layers - 1).name == "linear"


class TestForwardOutBuffers:
    """The preallocated-buffer path must be numerically identical
    (<= 1e-12) to the allocating path — it backs the serving fast path."""

    def test_out_matches_allocating_forward(self, rng):
        net = MLP("4->8->6->2", rng=rng)
        x = rng.normal(size=(32, 4)) * 10
        expected = net.forward(x)
        out = np.full((32, 2), np.nan)
        result = net.forward(x, out=out)
        assert result is out
        np.testing.assert_allclose(result, expected, atol=1e-12, rtol=0)

    def test_scratch_matches_allocating_forward(self, rng):
        net = MLP("4->8->6->2", rng=rng)
        x = rng.normal(size=(16, 4)) * 5
        expected = net.forward(x)
        scratch = [np.empty((16, 8)), np.empty((16, 6))]
        out = np.empty((16, 2))
        result = net.forward(x, out=out, scratch=scratch)
        np.testing.assert_allclose(result, expected, atol=1e-12, rtol=0)

    def test_buffers_are_reusable_across_batches(self, rng):
        net = MLP("3->5->1", rng=rng)
        scratch = [np.empty((10, 5))]
        out = np.empty((10, 1))
        for seed in range(4):
            x = np.random.default_rng(seed).normal(size=(10, 3))
            np.testing.assert_allclose(
                net.forward(x, out=out, scratch=scratch),
                net.forward(x),
                atol=1e-12,
                rtol=0,
            )

    def test_tanh_and_relu_hidden_layers(self, rng):
        for act in ("tanh", "relu"):
            net = MLP("3->6->2", hidden_activation=act, rng=rng)
            x = rng.normal(size=(12, 3)) * 3
            out = np.empty((12, 2))
            scratch = [np.empty((12, 6))]
            np.testing.assert_allclose(
                net.forward(x, out=out, scratch=scratch),
                net.forward(x),
                atol=1e-12,
                rtol=0,
            )


class TestAddBias:
    """The row-folded bias add is the broadcast add, bit for bit."""

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2000, 4000, 4096])
    @pytest.mark.parametrize("w", [1, 2, 3, 8, 32])
    def test_equals_broadcast_add(self, n, w, rng):
        h = rng.normal(size=(n, w)) * 1e3
        b = rng.normal(size=w)
        want = h + b
        add_bias(h, b)
        assert h.tobytes() == want.tobytes()

    def test_strided_layer(self, rng):
        base = rng.normal(size=(4096, 16))
        h = base[:, ::2]
        b = rng.normal(size=8)
        want = h + b
        add_bias(h, b)
        assert h.tobytes() == want.tobytes()
        assert np.shares_memory(h, base)

    def test_forward_equals_the_broadcast_forward(self, rng):
        net = MLP("18->32->2->2", rng=rng)
        x = rng.normal(size=(4000, 18))
        assert net.forward(x).tobytes() == forward_trace(net, x)[0].tobytes()
