"""Shared conformance suite for the ensemble's member backends.

The serving ensemble runs two kinds of member, the NPU MLP and fuzzy
memoization, and routes rows between them through one surface:
``__call__``, ``forward_batch(out=)``, ``clone_shard`` and
``cost_profile(cost_model)``.  The suite is parametrized over both and
checks, per backend: the fused ``forward_batch(out=)`` path matching
``__call__`` to 1e-9, pickle round trips preserving behaviour bit for
bit, and ``clone_shard`` isolation against a freshly built instance.
"""

import pickle

import numpy as np
import pytest

from repro.approx.base import CostProfile
from repro.approx.memoization import MemoizingBackend

BACKEND_NAMES = ("npu-mlp", "memo")


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
        raise AssertionError(name)

    return build


@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestApproxBackendConformance:
    def test_call_produces_output_block(self, make_backend, probe,
                                        fft_app, name):
        out = make_backend(name)(probe)
        assert out.shape == (probe.shape[0], fft_app.n_outputs)
        assert out.dtype == np.float64

    def test_fused_path_matches_call_to_1e9(self, make_backend, probe,
                                            name):
        """``forward_batch`` (with and without ``out=``) must agree with
        ``__call__`` to 1e-9 from identical runtime state: each path
        runs on its own fresh instance."""
        reference = np.array(make_backend(name)(probe))
        out = np.empty_like(reference)
        returned = make_backend(name).forward_batch(probe, out=out)
        assert returned is out
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            make_backend(name).forward_batch(probe), reference,
            rtol=1e-9, atol=1e-9,
        )

    def test_pickle_round_trip_is_bit_identical(self, make_backend,
                                                probe, name):
        """A pickled twin must track the original byte for byte — both
        from a fresh state and mid-stream (after calls accumulated
        runtime state such as memo entries)."""
        backend = make_backend(name)
        twin = pickle.loads(pickle.dumps(backend))
        assert backend(probe).tobytes() == twin(probe).tobytes()
        # Both instances are now one call deep; pickling again must
        # carry that state across the boundary too.
        mid = pickle.loads(pickle.dumps(backend))
        assert backend(probe).tobytes() == mid(probe).tobytes()

    def test_clone_shard_isolation(self, make_backend, probe, name):
        """Running a clone must not disturb the original: the original
        still computes what a freshly built instance does."""
        backend = make_backend(name)
        expected = make_backend(name)(probe).copy()
        shard = backend.clone_shard()
        shard(probe)
        shard(probe)
        assert backend(probe).tobytes() == expected.tobytes()

    def test_cost_profile_contract(self, make_backend, probe, fft_app,
                                   name):
        from repro.core.costs import CostModel

        backend = make_backend(name)
        backend(probe)  # the ensemble prices a member after labelling
        profile = backend.cost_profile(CostModel(fft_app))
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


def test_npu_features_are_per_row(fft_backend, probe):
    """The checker reads the NPU member's features, one row per input."""
    assert fft_backend.features(probe).shape[0] == probe.shape[0]


class TestCostProfileValidation:
    def test_nonpositive_costs_rejected(self):
        with pytest.raises(ValueError):
            CostProfile(relative_latency=0.0, relative_energy=0.5)
        with pytest.raises(ValueError):
            CostProfile(relative_latency=0.5, relative_energy=-1.0)
