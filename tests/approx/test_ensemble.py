"""Unit tests for the multi-approximator ensemble tier.

Router policy is tested against stub error predictors (canned scores)
so each decision rule is pinned exactly; construction, sharding and cost
blending run against the trained NPU reference plus stub backends; and
one end-to-end group exercises the trained default-spec fft ensemble.
"""

import numpy as np
import pytest

from repro.approx.base import CostProfile
from repro.approx.ensemble import (
    ApproximatorEnsemble,
    EnsembleMember,
    EnsembleSpec,
    InvocationRouter,
)
from repro.approx.memoization import MemoizingBackend
from repro.errors import ConfigurationError


class StubPredictor:
    """Duck-typed ErrorPredictor with canned per-row scores.

    ``value`` may be a scalar (every row scores the same) or ``"col0"``
    (each row scores its own first feature column), which lets tests
    route different rows to different members deterministically.
    """

    def __init__(self, value=0.0):
        self.value = value

    def scores(self, features=None, **_):
        features = np.atleast_2d(features)
        if self.value == "col0":
            return features[:, 0].astype(float)
        return np.full(features.shape[0], float(self.value))


class StubBackend:
    """Duck-typed member backend: every output column is the row's input
    sum times ``scale``, so each member's rows are told apart exactly."""

    def __init__(self, n_outputs, scale):
        self.n_outputs = n_outputs
        self.scale = scale

    def features(self, inputs):
        return np.atleast_2d(np.asarray(inputs, dtype=float))

    def __call__(self, inputs):
        rows = self.features(inputs).sum(axis=1, keepdims=True)
        return np.repeat(rows * self.scale, self.n_outputs, axis=1)

    def forward_batch(self, x, out=None):
        if out is None:
            return self(x)
        out[...] = self(x)
        return out

    def clone_shard(self):
        return self


def make_members(fft_app, fft_backend, cheap=0.0, mid=0.0):
    """Reference + an expensive member (cost 0.6) + a cheap one (0.1)."""
    return [
        EnsembleMember("mlp-large", fft_backend, StubPredictor(0.0),
                       CostProfile(0.3, 0.3)),
        EnsembleMember("quantize", StubBackend(fft_app.n_outputs, 2.0),
                       StubPredictor(mid), CostProfile(0.6, 0.6)),
        EnsembleMember("perforate", StubBackend(fft_app.n_outputs, 3.0),
                       StubPredictor(cheap), CostProfile(0.1, 0.1)),
    ]


@pytest.fixture
def probe(fft_app):
    rng = np.random.default_rng(5)
    return np.atleast_2d(fft_app.test_inputs(rng))[:32]


class TestEnsembleSpec:
    def test_defaults_round_trip(self):
        spec = EnsembleSpec()
        assert spec.member_tokens() == ("mlp:large", "mlp:small", "memo")

    def test_tokens_trimmed(self):
        spec = EnsembleSpec(members=" mlp:large , memo ")
        assert spec.member_tokens() == ("mlp:large", "memo")

    @pytest.mark.parametrize("kwargs,match", [
        ({"members": "mlp:large"}, "at least two members"),
        ({"members": "memo,mlp:large"}, "reference.*must be an mlp"),
        ({"margin": 0.0}, "margin must be > 0"),
    ])
    def test_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            EnsembleSpec(**kwargs)

    @pytest.mark.parametrize("members,match", [
        ("mlp:large,bogus", "unknown ensemble member"),
        ("mlp,mlp:large", "unknown ensemble member"),
        ("mlp:large,perforate", "unknown ensemble member"),
        ("mlp:large,quantize", "unknown ensemble member"),
        ("mlp:large,analog", "unknown ensemble member"),
        ("mlp:large,memo,memo", "repeated ensemble member"),
        ("mlp:large,mlp:large", "repeated ensemble member"),
    ])
    def test_member_list_rejected_at_construction(self, members, match):
        """Only the tokens serving builds, each at most once: a bad list
        fails here, not when a server trains its prototype."""
        with pytest.raises(ConfigurationError, match=match):
            EnsembleSpec(members=members)


class TestInvocationRouter:
    def test_cheapest_admissible_member_wins(self, fft_app, fft_backend,
                                             probe):
        # Both non-reference members predict zero error; the 0.1-energy
        # perforate member must take every row over the 0.6-energy one.
        router = InvocationRouter(make_members(fft_app, fft_backend))
        choices = router.route(probe, threshold=0.1)
        assert (choices == 2).all()

    def test_reference_fallback_when_nothing_fits(self, fft_app,
                                                  fft_backend, probe):
        router = InvocationRouter(
            make_members(fft_app, fft_backend, cheap=9.0, mid=9.0)
        )
        assert (router.route(probe, threshold=0.1) == 0).all()

    def test_next_cheapest_takes_overflow(self, fft_app, fft_backend,
                                          probe):
        # Cheap member predicts above tolerance, mid member inside it.
        router = InvocationRouter(
            make_members(fft_app, fft_backend, cheap=9.0, mid=0.01)
        )
        assert (router.route(probe, threshold=0.1) == 1).all()

    def test_per_row_routing_is_vectorized(self, fft_app, fft_backend):
        members = make_members(fft_app, fft_backend, mid=9.0)
        members[2].error_predictor = StubPredictor("col0")
        router = InvocationRouter(members)
        features = np.array([[0.01], [5.0], [0.02], [7.0]])
        choices = router.route(features, threshold=0.1)
        np.testing.assert_array_equal(choices, [2, 0, 2, 0])
        assert choices.dtype == np.int8

    def test_tolerance_scales_with_degradation(self, fft_app,
                                               fft_backend):
        router = InvocationRouter(
            make_members(fft_app, fft_backend),
            margin=0.5,
        )
        assert router.tolerance(0.1) == pytest.approx(0.05)
        assert router.tolerance(0.1, level=2) == pytest.approx(0.20)
        assert router.tolerance(0.1, level=0) == router.tolerance(0.1)

    def test_degradation_widens_routing(self, fft_app, fft_backend,
                                        probe):
        router = InvocationRouter(
            make_members(fft_app, fft_backend, cheap=0.15, mid=9.0)
        )
        assert (router.route(probe, threshold=0.1) == 0).all()
        # tolerance 0.1 -> 0.2
        assert (router.route(probe, threshold=0.1, level=1) == 2).all()
        assert (router.route(probe, threshold=0.1) == 0).all()

    def test_parameter_validation(self, fft_app, fft_backend):
        members = make_members(fft_app, fft_backend)
        with pytest.raises(ConfigurationError):
            InvocationRouter(members, margin=0.0)


class TestApproximatorEnsemble:
    def _ensemble(self, fft_app, fft_backend, **kwargs):
        members = make_members(fft_app, fft_backend, **kwargs)
        return ApproximatorEnsemble(
            fft_app, members, InvocationRouter(members)
        )

    def test_construction_validation(self, fft_app, fft_backend):
        members = make_members(fft_app, fft_backend)
        with pytest.raises(ConfigurationError, match=">= 2 members"):
            ApproximatorEnsemble(fft_app, members[:1],
                                 InvocationRouter(members[:1]))
        swapped = [members[2], members[0]]
        with pytest.raises(ConfigurationError, match="must be an NPU"):
            ApproximatorEnsemble(fft_app, swapped,
                                 InvocationRouter(swapped))
        dup = [members[0],
               EnsembleMember("mlp-large", members[2].backend,
                              StubPredictor(), CostProfile(0.1, 0.1))]
        with pytest.raises(ConfigurationError, match="duplicate"):
            ApproximatorEnsemble(fft_app, dup, InvocationRouter(dup))

    def test_homogeneous_batch_takes_fused_path(self, fft_app,
                                                fft_backend, probe):
        ens = self._ensemble(fft_app, fft_backend)
        choices = np.full(probe.shape[0], 2, dtype=np.int8)
        out = ens.forward_routed(probe, choices)
        np.testing.assert_array_equal(
            out, ens.members[2].backend(probe)
        )
        assert ens.rows_routed[2] == probe.shape[0]
        assert ens.rows_routed[0] == 0

    def test_mixed_batch_routes_per_row(self, fft_app, fft_backend,
                                        probe):
        ens = self._ensemble(fft_app, fft_backend)
        choices = (np.arange(probe.shape[0]) % 3).astype(np.int8)
        out = ens.forward_routed(probe, choices)
        for idx in range(3):
            rows = np.flatnonzero(choices == idx)
            np.testing.assert_allclose(
                out[rows], ens.members[idx].backend(probe[rows])
            )
            assert ens.rows_routed[idx] == rows.size

    def test_choice_length_validated(self, fft_app, fft_backend, probe):
        ens = self._ensemble(fft_app, fft_backend)
        with pytest.raises(ConfigurationError, match="one routing choice"):
            ens.forward_routed(probe, np.zeros(probe.shape[0] - 1))

    @pytest.mark.parametrize("bad", [5, -1, np.int64(256)],
                             ids=["5", "-1", "int64-256"])
    def test_member_ids_outside_range_rejected(self, fft_app, fft_backend,
                                               probe, bad):
        """An id outside ``[0, n_members)`` is refused before any row is
        computed, in a mixed batch and a homogeneous one alike: it must
        neither leave rows unwritten, index from the end, nor wrap."""
        ens = self._ensemble(fft_app, fft_backend)
        mixed = np.zeros(probe.shape[0], dtype=np.int64)
        mixed[1] = bad
        for choices in (mixed, np.full(probe.shape[0], bad)):
            with pytest.raises(ConfigurationError, match="outside"):
                ens.forward_routed(probe, choices)
        assert ens.rows_routed.sum() == 0

    def test_observe_detection_accumulates_fires(self, fft_app,
                                                 fft_backend):
        ens = self._ensemble(fft_app, fft_backend)
        choices = np.array([0, 1, 1, 2, 2, 2], dtype=np.int8)
        bits = np.array([True, True, False, True, True, False])
        ens.observe_detection(choices, bits)
        ens.observe_detection(choices, bits)
        np.testing.assert_array_equal(ens.fires_by_member, [2, 2, 4])

    def test_snapshot_shape(self, fft_app, fft_backend):
        snap = self._ensemble(fft_app, fft_backend).snapshot()
        assert snap["members"] == ["mlp-large", "quantize", "perforate"]
        assert snap["routed"] == [0, 0, 0]
        assert snap["fires"] == [0, 0, 0]
        assert snap["degradation_level"] == 0
        assert set(snap) == {"members", "routed", "fires",
                             "degradation_level"}

    def test_clone_shard_isolation(self, fft_app, fft_backend, probe):
        ens = self._ensemble(fft_app, fft_backend)
        clone = ens.clone_shard()
        # The trained artifacts are shared: reference weights and the
        # fitted (read-only) error predictors.
        assert clone.members[0].backend is ens.members[0].backend
        for mine, theirs in zip(clone.members, ens.members):
            assert mine.error_predictor is theirs.error_predictor
        # Router, counters and degradation are private to the shard.
        assert clone.router is not ens.router
        clone.route(probe, 0.1, level=3)
        clone.forward_routed(probe, np.zeros(probe.shape[0],
                                             dtype=np.int8))
        clone.observe_detection(np.zeros(4, dtype=np.int8),
                                np.ones(4, dtype=bool))
        assert clone.snapshot()["degradation_level"] == 3
        assert ens.snapshot()["degradation_level"] == 0
        assert ens.rows_routed.sum() == 0
        assert ens.fires_by_member.sum() == 0

    def test_blended_invocation_cycles_interpolates(self, fft_app,
                                                    fft_backend):
        from repro.core.costs import CostModel

        ens = self._ensemble(fft_app, fft_backend)
        cost_model = CostModel(fft_app)
        cpu = cost_model.cpu_iteration_cycles()
        all_cheap = ens.blended_invocation_cycles(
            np.full(10, 2, dtype=np.int8), cost_model
        )
        assert all_cheap == pytest.approx(0.1 * cpu)
        mixed = ens.blended_invocation_cycles(
            np.array([1] * 5 + [2] * 5, dtype=np.int8), cost_model
        )
        assert all_cheap < mixed < 0.6 * cpu

    def test_blended_app_costs_match_single_member(self, fft_app,
                                                   fft_backend):
        from repro.core.costs import CostModel
        from repro.hardware.checker_hw import CheckerModel

        ens = self._ensemble(fft_app, fft_backend)
        cost_model = CostModel(fft_app)
        checker = CheckerModel("tree", n_inputs=1)
        lone = ens.member_app_costs(2, cost_model, checker,
                                    fix_fraction=0.1)
        blended = ens.blended_app_costs(
            cost_model, checker, np.full(6, 2, dtype=np.int8),
            fix_fraction=0.1,
        )
        assert blended.scheme_energy_pj == pytest.approx(
            lone.scheme_energy_pj
        )
        assert blended.scheme_cycles == pytest.approx(lone.scheme_cycles)


class TestBuiltEnsemble:
    """The trained default-spec fft ensemble (session-cached prototype)."""

    def test_member_lineup(self, fft_ensemble):
        from repro.approx.npu_backend import NPUBackend

        assert fft_ensemble.member_names == [
            "mlp-large", "mlp-small", "memo"
        ]
        assert isinstance(fft_ensemble.reference, NPUBackend)
        assert fft_ensemble.reference is fft_ensemble.members[0].backend

    def test_memo_member_is_frozen_and_warmed(self, fft_ensemble):
        memo = fft_ensemble.members[2].backend
        assert isinstance(memo, MemoizingBackend)
        assert memo.frozen
        assert memo._table  # warmed offline
        # A fresh shard starts with clean traffic counters but keeps the
        # frozen table (a trained artifact, shared by reference).
        shard_memo = fft_ensemble.clone_shard().members[2].backend
        assert shard_memo.hits == 0 and shard_memo.misses == 0
        assert shard_memo._table is memo._table

    def test_measured_cost_profiles(self, fft_ensemble):
        for member in fft_ensemble.members:
            assert member.cost.relative_energy > 0
            assert member.cost.relative_latency > 0
        # The reference member's figures come from the NPU hardware
        # timing model, so it states absolute stream cycles too.
        assert fft_ensemble.members[0].cost.invocation_cycles is not None
        # Sized MLP siblings are trained independently (different seeds),
        # even when the scaled topology degenerates to the same shape.
        assert fft_ensemble.members[1].backend is not \
            fft_ensemble.members[0].backend

    def test_routing_and_execution_round_trip(self, fft_ensemble,
                                              fft_app):
        ens = fft_ensemble.clone_shard()
        rng = np.random.default_rng(9)
        x = np.atleast_2d(fft_app.test_inputs(rng))[:128]
        choices = ens.route(ens.router_features(x), threshold=0.05)
        assert choices.shape == (128,)
        assert choices.min() >= 0
        assert choices.max() < len(ens.members)
        out = ens.forward_routed(x, choices)
        assert out.shape == (128, fft_app.n_outputs)
        assert int(ens.rows_routed.sum()) == 128
