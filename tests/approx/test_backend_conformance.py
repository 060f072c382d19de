"""Shared conformance suite for the :class:`ApproxBackend` protocol.

Every approximation technique — the NPU MLP, fuzzy memoization, loop
perforation, the quantized datapath and the noisy-analog datapath — must
speak the same contract (``src/repro/approx/base.py``) so the ensemble
tier can treat them interchangeably.  The suite is parametrized over all
five backends and checks, per backend: runtime protocol compliance, the
fused ``forward_batch(out=)`` path matching ``__call__`` to 1e-9, pickle
round trips preserving behaviour bit for bit, ``reset_state`` restoring
fresh-instance behaviour, and ``clone_shard`` isolation.
"""

import pickle

import numpy as np
import pytest

from repro.approx.alt_backends import (
    NoisyAnalogBackend,
    QuantizedKernelBackend,
)
from repro.approx.base import (
    ApproxBackend,
    BackendBase,
    CostProfile,
)
from repro.approx.memoization import MemoizingBackend
from repro.approx.perforation_backend import PerforatedKernelBackend

BACKEND_NAMES = ("npu-mlp", "memo", "perforate", "quantize", "analog")


@pytest.fixture(scope="module")
def probe(fft_app):
    rng = np.random.default_rng(42)
    return np.atleast_2d(fft_app.test_inputs(rng))[:64]


@pytest.fixture
def make_backend(fft_app, fft_backend):
    """Factory building a fresh backend instance per call.

    The NPU backend is the exception: its trained weights are immutable
    at run time, so the session-scoped instance is the 'fresh' instance.
    """

    def build(name):
        if name == "npu-mlp":
            return fft_backend
        if name == "memo":
            return MemoizingBackend(fft_app, key_bits=4)
        if name == "perforate":
            return PerforatedKernelBackend(fft_app, keep_every=2)
        if name == "quantize":
            return QuantizedKernelBackend(fft_app, bits=8)
        if name == "analog":
            return NoisyAnalogBackend(fft_app, calibration_seed=0,
                                      noise_seed=1)
        raise AssertionError(name)

    return build


@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestApproxBackendConformance:
    def test_runtime_protocol_compliance(self, make_backend, name):
        backend = make_backend(name)
        assert isinstance(backend, ApproxBackend)
        assert backend.name == name
        assert isinstance(backend.quality_class, int)

    def test_call_produces_output_block(self, make_backend, probe,
                                        fft_app, name):
        out = make_backend(name)(probe)
        assert out.shape == (probe.shape[0], fft_app.n_outputs)
        assert out.dtype == np.float64

    def test_features_are_per_row(self, make_backend, probe, name):
        feats = make_backend(name).features(probe)
        assert feats.shape[0] == probe.shape[0]

    def test_fused_path_matches_call_to_1e9(self, make_backend, probe,
                                            name):
        """``forward_batch`` (with and without ``out=``) must agree with
        ``__call__`` to 1e-9 from identical runtime state."""
        backend = make_backend(name)
        backend.reset_state()
        reference = np.array(backend(probe))
        backend.reset_state()
        out = np.empty_like(reference)
        returned = backend.forward_batch(probe, out=out)
        assert returned is out
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-9)
        backend.reset_state()
        np.testing.assert_allclose(
            backend.forward_batch(probe), reference, rtol=1e-9, atol=1e-9
        )

    def test_pickle_round_trip_is_bit_identical(self, make_backend,
                                                probe, name):
        """A pickled twin must track the original byte for byte — both
        from a fresh state and mid-stream (after calls accumulated
        runtime state such as memo entries or analog rng position)."""
        backend = make_backend(name)
        twin = pickle.loads(pickle.dumps(backend))
        assert backend(probe).tobytes() == twin(probe).tobytes()
        # Both instances are now one call deep; pickling again must
        # carry that state across the boundary too.
        mid = pickle.loads(pickle.dumps(backend))
        assert backend(probe).tobytes() == mid(probe).tobytes()

    def test_reset_state_restores_fresh_behaviour(self, make_backend,
                                                  probe, name):
        backend = make_backend(name)
        fresh = backend(probe).copy()
        backend(probe)  # accumulate more runtime state
        backend.reset_state()
        assert backend(probe).tobytes() == fresh.tobytes()

    def test_clone_shard_isolation(self, make_backend, probe, name):
        """Running a clone must not disturb the original's behaviour."""
        backend = make_backend(name)
        expected = make_backend(name)(probe).copy()
        shard = backend.clone_shard()
        assert isinstance(shard, ApproxBackend)
        shard(probe)
        shard(probe)
        backend.reset_state()
        assert backend(probe).tobytes() == expected.tobytes()

    def test_cost_profile_contract(self, make_backend, fft_app, name):
        from repro.core.costs import CostModel

        backend = make_backend(name)
        for profile in (backend.cost_profile(),
                        backend.cost_profile(CostModel(fft_app))):
            assert isinstance(profile, CostProfile)
            assert profile.relative_latency > 0
            assert profile.relative_energy > 0

    def test_npu_profile_reports_hardware_cycles(self, make_backend,
                                                 fft_app, name):
        if name != "npu-mlp":
            pytest.skip("hardware timing model is NPU-only")
        from repro.core.costs import CostModel

        profile = make_backend(name).cost_profile(CostModel(fft_app))
        assert profile.invocation_cycles is not None
        assert profile.invocation_cycles > 0


class TestCostProfileValidation:
    def test_nonpositive_costs_rejected(self):
        with pytest.raises(ValueError):
            CostProfile(relative_latency=0.0, relative_energy=0.5)
        with pytest.raises(ValueError):
            CostProfile(relative_latency=0.5, relative_energy=-1.0)


class TestBackendBaseDefaults:
    def test_default_forward_batch_copies_into_out(self):
        class Doubler(BackendBase):
            name = "doubler"

            def __call__(self, inputs):
                return np.atleast_2d(inputs) * 2.0

            def features(self, inputs):
                return np.atleast_2d(inputs)

        backend = Doubler()
        x = np.arange(6, dtype=float).reshape(3, 2)
        out = np.empty((3, 2))
        assert backend.forward_batch(x, out=out) is out
        np.testing.assert_array_equal(out, x * 2.0)
        assert isinstance(backend, ApproxBackend)
        assert backend.clone_shard() is backend  # stateless default


class TestMemoResetState:
    def test_reset_state_keeps_a_frozen_table(self, fft_app, probe):
        """A frozen (trained) table is an artifact, not runtime state:
        the protocol-level reset clears the counters and keeps it."""
        backend = MemoizingBackend(fft_app, key_bits=4)
        backend(probe)
        backend.freeze()
        backend.reset_state()
        assert backend._table
        assert backend.hits == 0 and backend.misses == 0
