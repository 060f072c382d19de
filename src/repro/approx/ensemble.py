"""Multi-approximator ensembles with offline-fit invocation routing.

One approximator per app wastes the structure of real workloads: most
rows are easy (a tiny network or a memo hit is good enough) and a few
are hard (only the full-size network meets the error budget).
Following the invocation-driven multi-approximator idea
(arXiv:1810.08379), this module adds the ensemble tier over two kinds of
member, :class:`~repro.approx.npu_backend.NPUBackend` and frozen
:class:`~repro.approx.memoization.MemoizingBackend`:

:class:`ApproximatorEnsemble`
    N ranked backends (rank 0 = highest quality, the *reference*
    member) with measured cost profiles from
    :class:`~repro.core.costs.CostModel`, batch-vectorized routed
    execution, per-member counters, and blended cost accounting.
:class:`InvocationRouter`
    Picks a member per row from the row's features plus the current TOQ
    threshold: the cheapest member whose *predicted* error (per-member
    error predictors from :mod:`repro.predictors`) stays inside the
    budget, with the reference member as fallback.  Each backpressure
    degradation level, passed with the call, widens the budget
    multiplicatively, shifting traffic toward cheap members.

Like Rumba's checkers (and the multiclass router of 1810.08379), the
routing layer is fit once, offline: :func:`build_ensemble` fits each
member's error predictor from one shared labelling pass, and the fitted
predictors are read-only afterwards.  A routing decision therefore
depends only on the row's features, the threshold and the degradation
level, and replay runs each batch at its journaled level.  Replay still
forces the journaled per-row choices, for journals recorded while the
router learned online; the detection bits come from the statically
trained scheme predictor and depend only on the row features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.apps.base import Application
from repro.approx.base import CostProfile
from repro.approx.memoization import MemoizingBackend
from repro.approx.npu_backend import NPUBackend, train_npu_backend
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
    "build_ensemble",
]

#: Routing-budget widening per backpressure degradation level.
DEGRADE_BIAS = 2.0
#: The member tokens an :class:`EnsembleSpec` accepts.
MEMBER_TOKENS = ("mlp:large", "mlp:small", "memo")
#: What an ensemble member computes with.
MemberBackend = Union[NPUBackend, MemoizingBackend]


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of an ensemble (JSON-scalar fields only,
    so it round-trips through the serving config and the journal META).

    ``members`` is a comma-separated, best-first list of distinct
    :data:`MEMBER_TOKENS`: ``mlp:large`` / ``mlp:small`` (sized NPU
    networks) and ``memo`` (frozen fuzzy memoization).  The first member
    is the reference: it must be an NPU MLP and serves as the router's
    quality fallback.  ``margin`` scales the router's budget (see
    :class:`InvocationRouter`).
    """

    members: str = "mlp:large,mlp:small,memo"
    margin: float = 1.0

    def __post_init__(self) -> None:
        tokens = self.member_tokens()
        if len(tokens) < 2:
            raise ConfigurationError(
                "an ensemble needs at least two members"
            )
        unknown = [tok for tok in tokens if tok not in MEMBER_TOKENS]
        if unknown:
            raise ConfigurationError(
                f"unknown ensemble member token(s) {unknown}; "
                f"expected distinct tokens from {MEMBER_TOKENS}"
            )
        if len(set(tokens)) != len(tokens):
            raise ConfigurationError(
                f"repeated ensemble member token in {self.members!r}"
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
    backend: MemberBackend
    error_predictor: ErrorPredictor
    cost: CostProfile

    def predicted_errors(self, features: np.ndarray) -> np.ndarray:
        """Per-row predicted approximation error for this member."""
        return np.asarray(
            self.error_predictor.scores(features=features), dtype=float
        ).ravel()


class InvocationRouter:
    """Per-row backend selection from features and the TOQ threshold.

    Policy: rows go to the *cheapest* member whose predicted error
    stays within ``threshold * margin * DEGRADE_BIAS**level``.
    Rows no cheap member can serve fall back to the reference member
    (index 0).
    A backpressure ``level`` above 0 widens the accepted budget,
    deliberately trading quality for cost when the recovery path is
    backpressured.
    """

    def __init__(self, members: Sequence[EnsembleMember], margin: float = 1.0):
        if margin <= 0:
            raise ConfigurationError("margin must be > 0")
        self.members = list(members)
        self.margin = float(margin)
        # Cheapest-first candidate order; the reference (0) is the
        # fallback so it never needs to win on price.
        self._cost_order = sorted(
            range(1, len(self.members)),
            key=lambda i: self.members[i].cost.relative_energy,
        )

    def tolerance(self, threshold: float, level: int = 0) -> float:
        """The accepted per-row predicted error at ``level``."""
        return float(threshold) * self.margin * DEGRADE_BIAS ** level

    def route(
        self, features: np.ndarray, threshold: float, level: int = 0
    ) -> np.ndarray:
        """Choose a member index per row (vectorized; int8 choices)."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        n = features.shape[0]
        choices = np.zeros(n, dtype=np.int8)
        if not self._cost_order:
            return choices
        tol = self.tolerance(threshold, level)
        assigned = np.zeros(n, dtype=bool)
        for idx in self._cost_order:
            member = self.members[idx]
            take = (member.predicted_errors(features) <= tol) & ~assigned
            if take.any():
                choices[take] = idx
                assigned |= take
            if assigned.all():
                break
        return choices


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
        self.app = app
        self.members = list(members)
        self.router = router
        self.rows_routed = np.zeros(len(members), dtype=np.int64)
        self.fires_by_member = np.zeros(len(members), dtype=np.int64)
        #: The backpressure level of the last routed call.
        self.degradation_level = 0

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    @property
    def reference(self) -> NPUBackend:
        return self.members[0].backend  # type: ignore[return-value]

    @property
    def member_names(self) -> List[str]:
        return [m.name for m in self.members]

    def snapshot(self) -> dict:
        """Cumulative per-member counters (shm RESULT snapshot payload)."""
        return {
            "members": self.member_names,
            "routed": [int(v) for v in self.rows_routed],
            "fires": [int(v) for v in self.fires_by_member],
            "degradation_level": self.degradation_level,
        }

    # ------------------------------------------------------------------ #
    # Routed execution                                                   #
    # ------------------------------------------------------------------ #
    def router_features(self, inputs: np.ndarray) -> np.ndarray:
        """The router scores raw kernel inputs (all columns)."""
        return np.atleast_2d(np.asarray(inputs, dtype=float))

    def route(
        self, features: np.ndarray, threshold: float, level: int = 0
    ) -> np.ndarray:
        self.degradation_level = level
        return self.router.route(features, threshold, level)

    def member_ids(self, choices: np.ndarray) -> np.ndarray:
        """Per-row member choices as int8 indices.

        Raises :class:`ConfigurationError` when any id is outside
        ``[0, n_members)``, before the int8 cast could wrap it into range:
        forced choices arrive from callers and journals.
        """
        ids = np.asarray(choices).ravel()
        n_members = len(self.members)
        outside = (ids < 0) | (ids >= n_members)
        if outside.any():
            raise ConfigurationError(
                f"member id {ids[outside][0]} is outside [0, {n_members})"
            )
        return ids.astype(np.int8, copy=False)

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
        case where the router sends a whole batch one way.  A choice
        outside ``[0, n_members)`` raises :class:`ConfigurationError`
        before any row is computed.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        choices = self.member_ids(choices)
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
        cpu_energy = cost_model.cpu_iteration_energy_pj()
        cpu_cycles = cost_model.cpu_iteration_cycles()
        return cost_model.accelerated_app_costs(
            member.cost.relative_energy * cpu_energy
            + checker.check_energy_pj(),
            member.cost.relative_latency * cpu_cycles + checker.check_cycles(),
            fix_fraction,
            observed_kernel_cycles,
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
        return independent copies); the fitted error predictors are
        read-only, so shards share them; each shard gets its own router,
        and counters start clean.
        """
        members = [
            EnsembleMember(
                name=m.name,
                backend=m.backend.clone_shard(),
                error_predictor=m.error_predictor,
                cost=m.cost,
            )
            for m in self.members
        ]
        router = InvocationRouter(members, margin=self.router.margin)
        return ApproximatorEnsemble(self.app, members, router)


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
    token: str, app: Application, reference: NPUBackend, streams
) -> Tuple[str, MemberBackend]:
    """Instantiate one member backend from its spec token."""
    if token == "mlp:large":
        return "mlp-large", reference
    if token == "mlp:small":
        return "mlp-small", _train_sized_mlp(app, 0.25, streams.ensemble_small)
    if token == "memo":
        memo = MemoizingBackend(app, key_bits=5,
                                calibration_seed=streams.ensemble_calibration)
        rng = np.random.default_rng(streams.ensemble_warm)
        warm = np.atleast_2d(
            np.asarray(app.train_inputs(rng), dtype=float)
        )[:1000]
        memo(warm)  # populate the table ...
        memo.freeze()  # ... then make it a deterministic pure function
        memo.hits = 0
        memo.misses = 0
        return "memo", memo
    raise ConfigurationError(f"unknown ensemble member token {token!r}")


def build_ensemble(
    app: Application,
    spec: Optional[EnsembleSpec],
    reference: NPUBackend,
    streams,
    cost_model=None,
) -> ApproximatorEnsemble:
    """Train/assemble a full ensemble for one app.

    ``reference`` is the standard single-MLP backend, the rank-0 member,
    and ``streams`` the :class:`~repro.core.offline.Streams` the other
    members and the router draw from:
    :func:`repro.core.offline.prepare_ensemble` passes both.  Per-member
    router predictors are fitted once, on a shared labeled sample, and
    are read-only from then on.
    """
    spec = spec or EnsembleSpec()
    if cost_model is None:
        from repro.core.costs import CostModel

        cost_model = CostModel(app)

    backends: List[Tuple[str, MemberBackend]] = [
        _build_member_backend(token, app, reference, streams)
        for token in spec.member_tokens()
    ]

    # One shared labeled sample for all router-side error models.
    rng = np.random.default_rng(streams.ensemble_router)
    x = np.atleast_2d(np.asarray(app.train_inputs(rng), dtype=float))
    if x.shape[0] > 1500:
        pick = rng.choice(x.shape[0], size=1500, replace=False)
        x = x[pick]
    exact = app.exact(x)

    members: List[EnsembleMember] = []
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

    router = InvocationRouter(members, margin=spec.margin)
    return ApproximatorEnsemble(app, members, router)
