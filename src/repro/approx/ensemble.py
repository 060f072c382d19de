"""Multi-approximator ensembles with online-learned invocation routing.

One approximator per app wastes the structure of real workloads: most
rows are easy (a tiny network, a memo hit, or a perforated reuse is
good enough) and a few are hard (only the full-size network meets the
error budget).  Following the invocation-driven multi-approximator idea
(arXiv:1810.08379) and online self-compensation (arXiv:2001.03783),
this module adds the ensemble tier on top of the unified
:class:`~repro.approx.base.ApproxBackend` API:

:class:`ApproximatorEnsemble`
    N ranked backends (rank 0 = highest quality, the *reference*
    member) with measured cost profiles from
    :class:`~repro.core.costs.CostModel`, batch-vectorized routed
    execution, per-member counters, and blended cost accounting.
:class:`InvocationRouter`
    Picks a member per row from the row's features plus the current TOQ
    threshold: the cheapest member whose *predicted* error (per-member
    error predictors from :mod:`repro.predictors`) stays inside the
    budget, with the reference member as fallback.  The tuner's
    degrade/relax signals widen the budget multiplicatively, shifting
    traffic toward cheap members under backpressure.
:class:`OnlineLearner`
    Consumes recovery outcomes — the exact-vs-approx error of every
    flagged row, which the CPU recovery path computes anyway — and
    periodically retrains both the per-member error predictors and the
    router's per-member caution calibration from that free labeled data.

Determinism contract (``repro replay``): routing decisions are journaled
per request and *forced* during replay, so online learning may reshape
future choices freely without breaking bit-for-bit reproduction; the
detection bits themselves come from the statically trained scheme
predictor and depend only on the row features.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import Application
from repro.approx.alt_backends import (
    NoisyAnalogBackend,
    QuantizedKernelBackend,
)
from repro.approx.base import ApproxBackend, CostProfile
from repro.approx.memoization import MemoizingBackend
from repro.approx.npu_backend import NPUBackend, train_npu_backend
from repro.approx.perforation_backend import PerforatedKernelBackend
from repro.errors import ConfigurationError
from repro.nn.mlp import Topology
from repro.nn.trainer import RPropTrainer
from repro.predictors.base import ErrorPredictor
from repro.predictors.linear import LinearErrorPredictor

__all__ = [
    "ApproximatorEnsemble",
    "EnsembleMember",
    "EnsembleSpec",
    "InvocationRouter",
    "OnlineLearner",
    "build_ensemble",
]

#: Routing-budget widening per tuner degradation level.
DEGRADE_BIAS = 2.0
#: Recovery-labelled samples between online retrains.
RETRAIN_INTERVAL = 64
#: Per-member online ring-buffer capacity.
LEARN_BUFFER = 1024


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of an ensemble (JSON-scalar fields only,
    so it round-trips through the serving config and the journal META).

    ``members`` is a comma-separated, best-first list of member tokens:
    ``mlp:large`` / ``mlp:medium`` / ``mlp:small`` (sized NPU networks),
    ``memo`` (frozen fuzzy memoization), ``perforate`` (row-wise loop
    perforation), ``quantize`` (reduced-precision datapath), ``analog``
    (noisy analog datapath — stochastic, excluded from replay-grade
    serving ensembles).  The first member is the reference: it must be
    an NPU MLP and serves as the router's quality fallback.  ``margin``
    scales the router's budget (see :class:`InvocationRouter`).
    """

    members: str = "mlp:large,mlp:small,memo"
    margin: float = 1.0

    def __post_init__(self) -> None:
        tokens = self.member_tokens()
        if len(tokens) < 2:
            raise ConfigurationError(
                "an ensemble needs at least two members"
            )
        if not tokens[0].startswith("mlp"):
            raise ConfigurationError(
                "the first (reference) ensemble member must be an mlp"
            )
        if self.margin <= 0:
            raise ConfigurationError("margin must be > 0")

    def member_tokens(self) -> Tuple[str, ...]:
        return tuple(
            tok.strip() for tok in self.members.split(",") if tok.strip()
        )


@dataclass
class EnsembleMember:
    """One ranked backend plus its router-side error model and cost."""

    name: str
    backend: ApproxBackend
    error_predictor: ErrorPredictor
    cost: CostProfile

    def predicted_errors(self, features: np.ndarray) -> np.ndarray:
        """Per-row predicted approximation error for this member."""
        return np.asarray(
            self.error_predictor.scores(features=features), dtype=float
        ).ravel()


class InvocationRouter:
    """Per-row backend selection from features and the TOQ threshold.

    Policy: rows go to the *cheapest* member whose predicted error —
    scaled by that member's learned ``caution`` factor — stays within
    ``threshold * margin * DEGRADE_BIAS**degradation_level``.  Rows no
    cheap member can serve fall back to the reference member (index 0).
    Raising ``degradation_level`` (the tuner's degrade signal) widens
    the accepted budget, deliberately trading quality for cost when the
    recovery path is backpressured; relax undoes it.
    """

    def __init__(self, members: Sequence[EnsembleMember], margin: float = 1.0):
        if margin <= 0:
            raise ConfigurationError("margin must be > 0")
        self.members = list(members)
        self.margin = float(margin)
        self.degradation_level = 0
        #: Learned per-member correction on predicted errors (>1 means
        #: the member's predictor has been under-predicting: be careful).
        self.caution = np.ones(len(self.members))
        # Cheapest-first candidate order; the reference (0) is the
        # fallback so it never needs to win on price.
        self._cost_order = sorted(
            range(1, len(self.members)),
            key=lambda i: self.members[i].cost.relative_energy,
        )

    def tolerance(self, threshold: float) -> float:
        """The accepted per-row predicted error at the current level."""
        return (
            float(threshold)
            * self.margin
            * DEGRADE_BIAS ** self.degradation_level
        )

    def set_degradation(self, level: int) -> None:
        self.degradation_level = max(int(level), 0)

    def route(self, features: np.ndarray, threshold: float) -> np.ndarray:
        """Choose a member index per row (vectorized; int8 choices)."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        n = features.shape[0]
        choices = np.zeros(n, dtype=np.int8)
        if not self._cost_order:
            return choices
        tol = self.tolerance(threshold)
        assigned = np.zeros(n, dtype=bool)
        for idx in self._cost_order:
            member = self.members[idx]
            pred = member.predicted_errors(features) * self.caution[idx]
            take = (pred <= tol) & ~assigned
            if take.any():
                choices[take] = idx
                assigned |= take
            if assigned.all():
                break
        return choices


class OnlineLearner:
    """Recovery-fed incremental retraining of the routing layer.

    Every flagged row the CPU recovers yields an exact-vs-approx error
    label for the member that produced it.  Labels accumulate in
    per-member ring buffers (the newest :data:`LEARN_BUFFER` kept) on top
    of the offline training base; every :data:`RETRAIN_INTERVAL` labels
    the learner (a) refits each member's
    error predictor on base+online data and (b) recalibrates the
    router's per-member caution factors from how observed errors compare
    to what the member predicted.  Only the routing layer learns — the
    detection predictor stays static, keeping replayed bits exact.
    """

    def __init__(
        self,
        members: Sequence[EnsembleMember],
        router: InvocationRouter,
        base_features: np.ndarray,
        base_errors: List[np.ndarray],
    ):
        self.members = list(members)
        self.router = router
        # Shared, read-only offline base (features x per-member errors).
        self.base_features = base_features
        self.base_errors = base_errors
        self._online_features: List[List[np.ndarray]] = [
            [] for _ in self.members
        ]
        self._online_errors: List[List[np.ndarray]] = [
            [] for _ in self.members
        ]
        self._pending = 0
        self.samples_consumed = 0
        self.retrain_count = 0

    def observe(
        self,
        features: np.ndarray,
        choices: np.ndarray,
        errors: np.ndarray,
    ) -> None:
        """Record labeled rows (router features, chosen member, error)."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        choices = np.asarray(choices).ravel()
        errors = np.asarray(errors, dtype=float).ravel()
        if not errors.size:
            return
        for idx in np.unique(choices):
            rows = np.flatnonzero(choices == idx)
            self._online_features[idx].append(features[rows])
            self._online_errors[idx].append(errors[rows])
        self._pending += int(errors.size)
        self.samples_consumed += int(errors.size)
        if self._pending >= RETRAIN_INTERVAL:
            self._retrain()
            self._pending = 0

    def _member_online(
        self, idx: int
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        feats, errs = self._online_features[idx], self._online_errors[idx]
        if not feats:
            return None, None
        x = np.vstack(feats)
        y = np.concatenate(errs)
        if x.shape[0] > LEARN_BUFFER:
            x, y = x[-LEARN_BUFFER:], y[-LEARN_BUFFER:]
            # Compact the ring in place so memory stays bounded.
            self._online_features[idx] = [x]
            self._online_errors[idx] = [y]
        return x, y

    def _retrain(self) -> None:
        for idx, member in enumerate(self.members):
            x_on, y_on = self._member_online(idx)
            if x_on is None:
                continue
            # Router caution: compare what the member predicted for the
            # recovered rows against what recovery actually measured.
            predicted = member.predicted_errors(x_on)
            mean_pred = float(predicted.mean())
            mean_obs = float(y_on.mean())
            if mean_pred > 1e-12:
                ratio = np.clip(mean_obs / mean_pred, 0.5, 4.0)
                self.router.caution[idx] = float(
                    0.7 * self.router.caution[idx] + 0.3 * ratio
                )
            member.error_predictor.fit(
                np.vstack([self.base_features, x_on]),
                np.concatenate([self.base_errors[idx], y_on]),
            )
        self.retrain_count += 1


class ApproximatorEnsemble:
    """N ranked approximators behind one routed, batch-vectorized face.

    Member 0 is the *reference*: the highest-quality backend (the
    standard single-MLP deployment), which also provides the topology
    and network the surrounding :class:`~repro.core.runtime.RumbaSystem`
    plumbing expects.  Construction is easiest via
    :func:`build_ensemble` (or, with caching, via
    :func:`repro.core.offline.prepare_ensemble`).
    """

    def __init__(
        self,
        app: Application,
        members: Sequence[EnsembleMember],
        router: InvocationRouter,
        learner: Optional[OnlineLearner] = None,
    ):
        if len(members) < 2:
            raise ConfigurationError("an ensemble needs >= 2 members")
        if not isinstance(members[0].backend, NPUBackend):
            raise ConfigurationError(
                "the reference member (rank 0) must be an NPUBackend"
            )
        names = [m.name for m in members]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate member names: {names}")
        for member in members:
            if not isinstance(member.backend, ApproxBackend):
                raise ConfigurationError(
                    f"member {member.name!r} does not implement the "
                    "ApproxBackend protocol"
                )
        self.app = app
        self.members = list(members)
        self.router = router
        self.learner = learner
        self.rows_routed = np.zeros(len(members), dtype=np.int64)
        self.fires_by_member = np.zeros(len(members), dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    @property
    def reference(self) -> NPUBackend:
        return self.members[0].backend  # type: ignore[return-value]

    @property
    def member_names(self) -> List[str]:
        return [m.name for m in self.members]

    @property
    def retrain_count(self) -> int:
        return self.learner.retrain_count if self.learner else 0

    def snapshot(self) -> dict:
        """Cumulative per-member counters (shm RESULT snapshot payload)."""
        return {
            "members": self.member_names,
            "routed": [int(v) for v in self.rows_routed],
            "fires": [int(v) for v in self.fires_by_member],
            "retrains": self.retrain_count,
            "degradation_level": self.router.degradation_level,
        }

    # ------------------------------------------------------------------ #
    # Routed execution                                                   #
    # ------------------------------------------------------------------ #
    def router_features(self, inputs: np.ndarray) -> np.ndarray:
        """The router scores raw kernel inputs (all columns)."""
        return np.atleast_2d(np.asarray(inputs, dtype=float))

    def route(self, features: np.ndarray, threshold: float) -> np.ndarray:
        return self.router.route(features, threshold)

    def forward_routed(
        self,
        inputs: np.ndarray,
        choices: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate a batch through the chosen member per row.

        Rows are grouped into per-member sub-batches; a homogeneous
        batch takes the fused ``forward_batch(out=)`` path with zero
        gather copies, preserving the zero-copy hot path for the common
        case where the router sends a whole batch one way.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        choices = np.asarray(choices).ravel()
        n = inputs.shape[0]
        if choices.shape[0] != n:
            raise ConfigurationError("one routing choice per row required")
        if out is None:
            out = np.empty((n, self.app.n_outputs))
        if n and (choices == choices[0]).all():
            idx = int(choices[0])
            self.members[idx].backend.forward_batch(inputs, out=out)
            self.rows_routed[idx] += n
            return out
        for idx, member in enumerate(self.members):
            rows = np.flatnonzero(choices == idx)
            if not rows.size:
                continue
            out[rows] = member.backend(inputs[rows])
            self.rows_routed[idx] += rows.size
        return out

    def observe_detection(
        self, choices: np.ndarray, bits: np.ndarray
    ) -> None:
        """Accumulate per-member fire counters after detection."""
        choices = np.asarray(choices).ravel()
        bits = np.asarray(bits, dtype=bool).ravel()
        np.add.at(self.fires_by_member, choices[bits], 1)

    def observe_recovery(
        self,
        features: np.ndarray,
        choices: np.ndarray,
        recovery_indices: np.ndarray,
        approx_outputs: np.ndarray,
        exact_outputs: np.ndarray,
    ) -> None:
        """Feed the learner with one invocation's recovery outcomes."""
        if self.learner is None:
            return
        recovery_indices = np.asarray(recovery_indices, dtype=int).ravel()
        if not recovery_indices.size:
            return
        errors = self.app.element_errors(
            np.atleast_2d(approx_outputs), np.atleast_2d(exact_outputs)
        )
        self.learner.observe(
            np.atleast_2d(features)[recovery_indices],
            np.asarray(choices).ravel()[recovery_indices],
            np.asarray(errors, dtype=float).ravel(),
        )

    def set_degradation(self, level: int) -> None:
        self.router.set_degradation(level)

    # ------------------------------------------------------------------ #
    # Blended cost accounting                                            #
    # ------------------------------------------------------------------ #
    def blended_invocation_cycles(
        self, choices: np.ndarray, cost_model
    ) -> float:
        """Row-weighted accelerator-stream cycles per iteration."""
        choices = np.asarray(choices).ravel()
        cpu_cycles = cost_model.cpu_iteration_cycles()
        counts = np.bincount(choices, minlength=len(self.members))
        total = 0.0
        for idx, member in enumerate(self.members):
            if not counts[idx]:
                continue
            cycles = member.cost.invocation_cycles
            if cycles is None:
                cycles = member.cost.relative_latency * cpu_cycles
            total += counts[idx] * cycles
        return total / max(int(counts.sum()), 1)

    def member_app_costs(
        self,
        index: int,
        cost_model,
        checker,
        fix_fraction: float,
        detector_placement: int = 2,
        observed_kernel_cycles: Optional[float] = None,
    ):
        """Whole-app costs as if *all* rows ran through one member."""
        member = self.members[index]
        if isinstance(member.backend, NPUBackend):
            return cost_model.whole_app_costs(
                topology=member.backend.topology,
                checker=checker,
                fix_fraction=fix_fraction,
                detector_placement=detector_placement,
                observed_kernel_cycles=observed_kernel_cycles,
            )
        from repro.core.costs import AppCosts

        profile = member.cost
        f = self.app.offload_fraction
        cpu_energy = cost_model.cpu_iteration_energy_pj()
        cpu_cycles = cost_model.cpu_iteration_cycles()
        baseline_energy = cpu_energy / f
        baseline_cycles = cpu_cycles / f
        accel_energy = (
            profile.relative_energy * cpu_energy + checker.check_energy_pj()
        )
        accel_stream = (
            profile.relative_latency * cpu_cycles
            + checker.check_cycles()
            + cost_model.overhead.overlapped_cycles
        )
        if observed_kernel_cycles is not None:
            kernel_cycles = max(observed_kernel_cycles, accel_stream)
        else:
            kernel_cycles = max(accel_stream, fix_fraction * cpu_cycles)
        scheme_energy = (
            baseline_energy * (1.0 - f)
            + accel_energy
            + cost_model.overhead_energy_pj()
            + fix_fraction * cpu_energy
        )
        scheme_cycles = baseline_cycles * (1.0 - f) + kernel_cycles
        return AppCosts(
            baseline_energy_pj=baseline_energy,
            scheme_energy_pj=scheme_energy,
            baseline_cycles=baseline_cycles,
            scheme_cycles=scheme_cycles,
            fix_fraction=fix_fraction,
        )

    def blended_app_costs(
        self,
        cost_model,
        checker,
        choices: np.ndarray,
        fix_fraction: float,
        detector_placement: int = 2,
        observed_kernel_cycles: Optional[float] = None,
    ):
        """Row-share-weighted whole-app costs across the routed members."""
        from repro.core.costs import AppCosts

        choices = np.asarray(choices).ravel()
        counts = np.bincount(choices, minlength=len(self.members))
        total = max(int(counts.sum()), 1)
        baseline_energy = scheme_energy = 0.0
        baseline_cycles = scheme_cycles = 0.0
        for idx in range(len(self.members)):
            if not counts[idx]:
                continue
            share = counts[idx] / total
            costs = self.member_app_costs(
                idx,
                cost_model,
                checker,
                fix_fraction,
                detector_placement=detector_placement,
                observed_kernel_cycles=observed_kernel_cycles,
            )
            baseline_energy += share * costs.baseline_energy_pj
            scheme_energy += share * costs.scheme_energy_pj
            baseline_cycles += share * costs.baseline_cycles
            scheme_cycles += share * costs.scheme_cycles
        return AppCosts(
            baseline_energy_pj=baseline_energy,
            scheme_energy_pj=scheme_energy,
            baseline_cycles=baseline_cycles,
            scheme_cycles=scheme_cycles,
            fix_fraction=fix_fraction,
        )

    # ------------------------------------------------------------------ #
    # Sharding                                                           #
    # ------------------------------------------------------------------ #
    def clone_shard(self) -> "ApproximatorEnsemble":
        """An ensemble for a fresh shard.

        Backends delegate to their own ``clone_shard`` (stateful ones
        return independent copies); router predictors are deep-copied so
        each shard's online learning stays private; the learner restarts
        with empty online buffers over the shared offline base; counters
        and degradation start clean.
        """
        members = [
            EnsembleMember(
                name=m.name,
                backend=m.backend.clone_shard(),
                error_predictor=copy.deepcopy(m.error_predictor),
                cost=m.cost,
            )
            for m in self.members
        ]
        router = InvocationRouter(members, margin=self.router.margin)
        learner = None
        if self.learner is not None:
            learner = OnlineLearner(
                members,
                router,
                base_features=self.learner.base_features,
                base_errors=self.learner.base_errors,
            )
        return ApproximatorEnsemble(
            self.app, members, router, learner=learner
        )


# ---------------------------------------------------------------------- #
# Construction                                                           #
# ---------------------------------------------------------------------- #
def _train_sized_mlp(app: Application, scale: float, seed: int) -> NPUBackend:
    """Train an NPU backend on a width-scaled Rumba topology.

    ``scale`` shrinks every hidden layer of the app's Rumba topology
    (floor 1 neuron), producing the cheaper/lower-quality siblings of
    the reference network.
    """
    base = app.rumba_topology
    hidden = [max(1, int(round(w * scale))) for w in base.hidden_sizes]
    backend, _ = train_npu_backend(
        app,
        topology=Topology((base.n_inputs, *hidden, base.n_outputs)),
        trainer=RPropTrainer(max_epochs=300, patience=40, seed=seed),
        seed=seed,
        n_train_cap=2000,
    )
    return backend


def _build_member_backend(
    token: str,
    app: Application,
    seed: int,
    reference: Optional[NPUBackend],
) -> Tuple[str, ApproxBackend]:
    """Instantiate one member backend from its spec token."""
    if token in ("mlp", "mlp:large"):
        backend = (
            reference
            if reference is not None
            else _train_sized_mlp(app, 1.0, seed)
        )
        return "mlp-large", backend
    if token == "mlp:medium":
        return "mlp-medium", _train_sized_mlp(app, 0.5, seed + 11)
    if token == "mlp:small":
        return "mlp-small", _train_sized_mlp(app, 0.25, seed + 12)
    if token == "memo":
        memo = MemoizingBackend(app, key_bits=5, calibration_seed=seed)
        rng = np.random.default_rng(seed + 13)
        warm = np.atleast_2d(
            np.asarray(app.train_inputs(rng), dtype=float)
        )[:1000]
        memo(warm)  # populate the table ...
        memo.freeze()  # ... then make it a deterministic pure function
        memo.hits = 0
        memo.misses = 0
        return "memo", memo
    if token == "perforate":
        return "perforate", PerforatedKernelBackend(app, keep_every=2)
    if token == "quantize":
        return "quantize", QuantizedKernelBackend(
            app, bits=8, calibration_seed=seed
        )
    if token == "analog":
        return "analog", NoisyAnalogBackend(
            app, calibration_seed=seed, noise_seed=seed + 1
        )
    raise ConfigurationError(f"unknown ensemble member token {token!r}")


def build_ensemble(
    app: Application,
    spec: Optional[EnsembleSpec] = None,
    seed: int = 0,
    reference: Optional[NPUBackend] = None,
    cost_model=None,
) -> ApproximatorEnsemble:
    """Train/assemble a full ensemble for one app.

    ``reference`` lets callers inject the (cached) standard single-MLP
    backend as the rank-0 member; :func:`repro.core.offline.prepare_ensemble`
    does exactly that.  Per-member router predictors are fitted offline
    on a shared labeled sample, so routing works from the first request;
    the :class:`OnlineLearner` then refines them from recovery outcomes.
    """
    spec = spec or EnsembleSpec()
    if cost_model is None:
        from repro.core.costs import CostModel

        cost_model = CostModel(app)

    backends: List[Tuple[str, ApproxBackend]] = [
        _build_member_backend(token, app, seed, reference)
        for token in spec.member_tokens()
    ]

    # One shared labeled sample for all router-side error models.
    rng = np.random.default_rng(seed + 21)
    x = np.atleast_2d(np.asarray(app.train_inputs(rng), dtype=float))
    if x.shape[0] > 1500:
        pick = rng.choice(x.shape[0], size=1500, replace=False)
        x = x[pick]
    exact = app.exact(x)

    members: List[EnsembleMember] = []
    base_errors: List[np.ndarray] = []
    for name, backend in backends:
        approx = backend(x)
        errors = np.asarray(
            app.element_errors(approx, exact), dtype=float
        ).ravel()
        predictor = LinearErrorPredictor().fit(x, errors)
        members.append(
            EnsembleMember(
                name=name,
                backend=backend,
                error_predictor=predictor,
                cost=backend.cost_profile(cost_model),
            )
        )
        base_errors.append(errors)

    router = InvocationRouter(members, margin=spec.margin)
    learner = OnlineLearner(
        members, router, base_features=x, base_errors=base_errors
    )
    return ApproximatorEnsemble(app, members, router, learner=learner)
