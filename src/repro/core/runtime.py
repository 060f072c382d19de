"""The Rumba runtime — the online half of Fig. 4, end to end.

:class:`RumbaSystem` drives one benchmark through the full loop for each
accelerator invocation:

1. the accelerator (NPU backend) produces approximate outputs,
2. the detection module scores every element and sets recovery bits in the
   recovery queue,
3. the CPU-side recovery module drains the queue, re-executes flagged
   iterations exactly and merges the results,
4. the pipeline model accounts the overlap timing, the cost model accounts
   energy, and
5. the online tuner adapts the threshold for the next invocation.

Construction from scratch is easiest via
:func:`repro.core.offline.prepare_system`, which runs both offline trainers.

Every invocation stamps its phase boundaries as ``(stage,
time.monotonic())`` points on its record (:attr:`InvocationRecord.stages`,
the request-trace event shape) whether or not anyone is watching.  Attach
a :class:`~repro.observability.Telemetry` (constructor argument or
:meth:`RumbaSystem.attach_telemetry`) and the finished record is handed
to it once, from which it exports the paper's observable quantities —
fire rate, recovered fraction, threshold, queue pressure, keep-up — as
metrics plus per-phase spans.  Without telemetry that is one ``is None``
check per invocation.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, MutableSequence, Optional, Tuple

import numpy as np

from repro.apps.base import Application
from repro.approx.ensemble import ApproximatorEnsemble
from repro.approx.npu_backend import NPUBackend
from repro.core.config import RumbaConfig
from repro.core.costs import AppCosts, CostModel, OffloadOverhead
from repro.core.detection import DetectionModule, DetectionResult
from repro.core.pipeline import PipelineResult, simulate_pipeline
from repro.core.placement import evaluate_placement
from repro.core.recovery import RecoveryModule, RecoveryResult
from repro.core.tuner import InvocationFeedback, OnlineTuner
from repro.errors import ConfigurationError
from repro.hardware.energy import EnergyModel
from repro.hardware.npu import NPUModel
from repro.hardware.queues import ConfigQueue
from repro.observability.instrument import Telemetry
from repro.observability.reqtrace import (
    STAGE_COMPUTE,
    STAGE_DETECT,
    STAGE_INVOKE,
    STAGE_MEASURE,
    STAGE_RECOVER,
    STAGE_ROUTE,
    STAGE_TUNE,
)
from repro.predictors.base import ErrorPredictor

__all__ = ["RumbaSystem", "InvocationRecord", "PendingInvocation"]


@dataclass
class InvocationRecord:
    """Everything observed during one accelerator invocation.

    ``choices`` holds the per-row routed ensemble-member indices (int8)
    when the system runs an :class:`~repro.approx.ensemble.ApproximatorEnsemble`;
    the serving journal persists them so ``repro replay`` can force the
    same routing bit-for-bit.  ``None`` on single-backend systems.

    ``stages`` is the invocation's timeline: ``(stage, time.monotonic())``
    points in stamping order, names from
    :data:`repro.observability.reqtrace.STAGES`.  A stage's cost is the
    time since the previous point, so the chain reads exactly like a
    request trace — and is spliced into one when the invocation served a
    batch.  ``tuned_threshold`` is the tuner's output after this invocation
    at the invocation's backpressure ``level`` and ``tuner_move`` the
    direction the tuner moved (+1 raise, -1 lower, 0 hold).
    """

    outputs: np.ndarray
    detection: DetectionResult
    recovery: RecoveryResult
    pipeline: PipelineResult
    costs: AppCosts
    measured_error: Optional[float] = None
    unchecked_error: Optional[float] = None
    choices: Optional[np.ndarray] = None
    stages: List[Tuple[str, float]] = field(default_factory=list)
    tuned_threshold: float = 0.0
    tuner_move: int = 0
    level: int = 0

    @property
    def fix_fraction(self) -> float:
        return self.recovery.recovered_fraction

    def facts(self) -> Dict[str, object]:
        """The record as the flat scalars telemetry and reports carry.

        One dict serves :meth:`Telemetry.observe` in this process and —
        inside a worker's batch report — the serving core's per-worker
        telemetry in another, so both export the same series.
        """
        pipeline = self.pipeline
        n_fired = self.detection.n_fired  # one pass over the bits
        facts: Dict[str, object] = {
            "n_elements": self.detection.n_elements,
            "n_fired": n_fired,
            "n_recovered": int(self.recovery.n_recovered),
            "fire_fraction": n_fired / self.detection.n_elements,
            "fix_fraction": float(self.fix_fraction),
            "threshold": self.tuned_threshold,
            "tuner_move": self.tuner_move,
            "cpu_kept_up": bool(pipeline.cpu_kept_up),
            "cpu_utilization": float(pipeline.cpu_utilization),
            "makespan_cycles": float(pipeline.makespan),
        }
        if self.measured_error is not None:
            facts["measured_error"] = float(self.measured_error)
        if self.unchecked_error is not None:
            facts["unchecked_error"] = float(self.unchecked_error)
        return facts


@dataclass
class PendingInvocation:
    """The accelerator-side half of one invocation, awaiting CPU recovery.

    Produced by :meth:`RumbaSystem.begin_invocation` (accelerate + detect)
    and consumed by :meth:`RumbaSystem.complete_invocation` (recover +
    tune).  This is the paper's producer/consumer split made explicit;
    :meth:`RumbaSystem.run_invocation` is the two composed, and the
    ladder times each half on its own.
    """

    inputs: np.ndarray
    approx: np.ndarray
    detection: DetectionResult
    recovery_bits: np.ndarray
    measure_quality: bool
    exact: Optional[np.ndarray] = None
    choices: Optional[np.ndarray] = None
    #: The timeline so far (see :attr:`InvocationRecord.stages`).
    stages: List[Tuple[str, float]] = field(default_factory=list)
    #: Backpressure degradation steps the invocation runs under.
    level: int = 0

    @property
    def n_elements(self) -> int:
        return int(self.inputs.shape[0])


class RumbaSystem:
    """A benchmark wired into the full Rumba detection/recovery loop.

    Parameters
    ----------
    max_records:
        When set, :attr:`records` becomes a ring buffer of that length so
        long-running deployments do not grow without bound; the windowed
        summaries then cover the retained records, while lifetime
        aggregates remain available through an attached telemetry's
        metrics registry.  Default (None) keeps every record, matching the
        experimenters' workflows.
    telemetry:
        Optional :class:`~repro.observability.Telemetry`, the reader of
        every finished invocation record.
    """

    def __init__(
        self,
        app: Application,
        backend: NPUBackend,
        predictor: ErrorPredictor,
        config: Optional[RumbaConfig] = None,
        energy_model: Optional[EnergyModel] = None,
        npu: Optional[NPUModel] = None,
        overhead: Optional[OffloadOverhead] = None,
        max_records: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        ensemble: Optional[ApproximatorEnsemble] = None,
    ):
        self.app = app
        self.backend = backend
        self.predictor = predictor
        if ensemble is not None and ensemble.reference is not backend:
            raise ConfigurationError(
                "the ensemble's reference member must be the system backend"
            )
        self.ensemble = ensemble
        self.config = config or RumbaConfig(scheme=predictor.name)
        if self.config.scheme != predictor.name:
            raise ConfigurationError(
                f"config scheme {self.config.scheme!r} does not match the "
                f"predictor {predictor.name!r}"
            )
        if max_records is not None and max_records < 1:
            raise ConfigurationError("max_records must be >= 1")
        self.tuner = OnlineTuner(self.config, max_history=max_records)
        self.detection = DetectionModule(
            predictor,
            threshold=self.tuner.threshold,
            n_inputs=backend.topology.n_inputs,
        )
        self.recovery = RecoveryModule(app.exact)
        self.cost_model = CostModel(
            app, energy_model=energy_model, npu=npu, overhead=overhead
        )
        # An iteration's constants, priced once: complete_invocation does
        # scalar arithmetic.  Placement 1's energy moves with the fire
        # fraction, and an ensemble blends its members: both per call.
        checker, npu = self.detection.checker, self.cost_model.npu
        self._accel_cycles = npu.invocation_cycles(backend.topology)
        self._check_cycles = checker.check_cycles()
        self._placed = None if self.config.detector_placement == 1 else (
            evaluate_placement(2, npu, checker, backend.topology, 0.0))
        # Fig. 4: the accelerator configuration and the checker
        # coefficients travel over the same config queue at kernel launch.
        self.config_queue = ConfigQueue()
        self.config_queue.send(
            "accelerator", backend.network.get_flat_params()
        )
        if predictor.is_fitted:
            coefficients = predictor.coefficients()
            if coefficients:
                expected = predictor.coefficient_count()
                if len(coefficients) != expected:
                    raise ConfigurationError(
                        f"{predictor.name} ships {len(coefficients)} "
                        f"coefficients but declares {expected}"
                    )
                self.config_queue.send("checker", coefficients)
        self.max_records = max_records
        self.records: MutableSequence[InvocationRecord] = (
            [] if max_records is None else deque(maxlen=max_records)
        )
        self.total_invocations = 0
        self.telemetry: Optional[Telemetry] = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def attach_telemetry(self, telemetry: Optional[Telemetry]) -> None:
        """Attach (or detach, with None) the reader of this loop's records."""
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.on_threshold(self.tuner.threshold, 0)

    # ------------------------------------------------------------------ #
    # Serialization (process-backend serving)                            #
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Pickle everything except telemetry.

        Telemetry is bound to the origin process's registry, so it does
        not travel.  A forked process worker inherits the prototype and
        pickles nothing; a spawn context pickles it once per worker start.
        """
        state = self.__dict__.copy()
        state["telemetry"] = None
        return state

    # ------------------------------------------------------------------ #
    # Execution                                                          #
    # ------------------------------------------------------------------ #
    def run_invocation(
        self,
        inputs: np.ndarray,
        measure_quality: bool = True,
        forced_choices: Optional[np.ndarray] = None,
        level: int = 0,
    ) -> InvocationRecord:
        """Run one accelerator invocation through detect-recover-tune.

        ``measure_quality=True`` additionally computes the exact outputs
        for the *whole* invocation to report measured output error — that
        is the experimenter's measurement, not something the deployed
        system would do.  ``level`` is the serving layer's backpressure
        degradation level for this invocation (see :meth:`begin_invocation`).
        """
        return self.complete_invocation(
            self.begin_invocation(
                inputs, measure_quality, forced_choices=forced_choices,
                level=level,
            )
        )

    def begin_invocation(
        self,
        inputs: np.ndarray,
        measure_quality: bool = True,
        forced_choices: Optional[np.ndarray] = None,
        level: int = 0,
    ) -> PendingInvocation:
        """Accelerator-side half of one invocation: accelerate + detect.

        Returns a :class:`PendingInvocation` whose recovery bits are set;
        pass it to :meth:`complete_invocation` to run CPU recovery, tuning
        and record-keeping.  Only one thread may drive a given system's
        invocations at a time; nothing else writes to it.

        Detection runs at ``tuner.threshold_at(level)``: each backpressure
        level raises the threshold one ``DEGRADE_FACTOR`` step and widens
        the ensemble router's budget.  The tuner keeps its own threshold,
        so the next level-0 invocation detects at exactly that value.

        On an ensemble system a *route* step precedes acceleration: the
        router picks a member per row, and the routed members compute the
        batch.  ``forced_choices`` (per-row member indices) bypasses the
        router — this is how ``repro replay`` reproduces a journaled run
        bit-for-bit; an index outside ``[0, n_members)`` raises
        :class:`ConfigurationError`.  Forcing is needed although the
        router is fit once: journals recorded before the router became
        read-only were routed by one that learned online.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        n = inputs.shape[0]
        if n == 0:
            raise ConfigurationError("invocation needs at least one element")
        if forced_choices is not None and self.ensemble is None:
            raise ConfigurationError(
                "forced_choices requires an ensemble system"
            )

        # The timeline: one clock read per phase boundary, stamped
        # whether or not telemetry is attached (``invoke`` anchors it).
        clock = time.monotonic
        stages = [(STAGE_INVOKE, clock())]
        threshold = self.tuner.threshold_at(level)
        try:
            choices = None
            if self.ensemble is not None:
                if forced_choices is not None:
                    choices = self.ensemble.member_ids(forced_choices)
                    if choices.shape[0] != n:
                        raise ConfigurationError(
                            "forced_choices needs one entry per row"
                        )
                else:
                    choices = self.ensemble.route(
                        self.ensemble.router_features(inputs), threshold,
                        level,
                    )
                stages.append((STAGE_ROUTE, clock()))
                approx = self.ensemble.forward_routed(inputs, choices)
            else:
                approx = self.backend(inputs)
            features = self.backend.features(inputs)
            stages.append((STAGE_COMPUTE, clock()))

            # The experimenter's instrument, not a phase of the loop: it
            # gets its own stage so its cost lands in no phase's segment.
            true_errors = None
            exact = None
            if measure_quality or self.predictor.name == "Ideal":
                exact = self.app.exact(inputs)
                true_errors = self.app.element_errors(approx, exact)
                stages.append((STAGE_MEASURE, clock()))

            self.detection.threshold = threshold
            # Detection owns the recovery-bits vector: the Fig. 4
            # recovery queue between checker and CPU is that vector plus
            # simulate_pipeline's FIFO service order.
            detection = self.detection.detect_into(
                features=features,
                approx_outputs=approx,
                true_errors=true_errors,
            )
            bits = detection.recovery_bits
            if self.ensemble is not None:
                self.ensemble.observe_detection(choices, bits)
            stages.append((STAGE_DETECT, clock()))
        except BaseException:
            if self.telemetry is not None:
                # Show the attempt: the chain so far, no record facts.
                self.telemetry.observe(stages)
            raise
        return PendingInvocation(
            inputs=inputs,
            approx=approx,
            detection=detection,
            recovery_bits=bits,
            measure_quality=measure_quality,
            exact=exact,
            choices=choices,
            stages=stages,
            level=level,
        )

    def complete_invocation(
        self, pending: PendingInvocation
    ) -> InvocationRecord:
        """CPU-side half of one invocation: recover + tune + record."""
        clock = time.monotonic
        stages = pending.stages
        try:
            recovery = self.recovery.recover(
                pending.inputs, pending.approx, pending.recovery_bits
            )
            stages.append((STAGE_RECOVER, clock()))

            n = pending.n_elements
            placement = self.config.detector_placement
            fix_fraction = recovery.recovered_fraction
            accel_cycles = self._accel_cycles
            if self.ensemble is not None:
                accel_cycles = self.ensemble.blended_invocation_cycles(
                    pending.choices, self.cost_model
                )
            pipeline = simulate_pipeline(
                recovery.recovery_indices, n, accel_cycles,
                self.cost_model.cpu_iteration_cycles(), placement,
                self._check_cycles,
            )
            observed = pipeline.makespan / n
            if self.ensemble is not None:
                costs = self.ensemble.blended_app_costs(
                    self.cost_model, self.detection.checker, pending.choices,
                    fix_fraction, placement, observed,
                )
            else:
                placed = self._placed or evaluate_placement(
                    1, self.cost_model.npu, self.detection.checker,
                    self.backend.topology, fix_fraction,
                )
                costs = self.cost_model.accelerated_app_costs(
                    placed.energy_pj_per_iteration,
                    placed.cycles_per_iteration, fix_fraction, observed,
                )
            before = self.tuner.threshold
            tuned = self.tuner.update(
                InvocationFeedback(
                    fix_fraction=recovery.recovered_fraction,
                    cpu_kept_up=pipeline.cpu_kept_up,
                    cpu_utilization=pipeline.cpu_utilization,
                )
            )
            stages.append((STAGE_TUNE, clock()))

            measured_error = None
            unchecked_error = None
            if pending.measure_quality and pending.exact is not None:
                measured_error = self.app.output_error(
                    recovery.merged_outputs, pending.exact
                )
                unchecked_error = self.app.output_error(
                    pending.approx, pending.exact
                )

            record = InvocationRecord(
                outputs=recovery.merged_outputs,
                detection=pending.detection,
                recovery=recovery,
                pipeline=pipeline,
                costs=costs,
                measured_error=measured_error,
                unchecked_error=unchecked_error,
                choices=pending.choices,
                stages=stages,
                tuned_threshold=float(self.tuner.threshold_at(pending.level)),
                tuner_move=(tuned > before) - (tuned < before),
                level=pending.level,
            )
        except BaseException:
            if self.telemetry is not None:
                self.telemetry.observe(stages)
            raise
        if self.telemetry is not None:
            self.telemetry.observe(stages, record.facts())
        self.records.append(record)
        self.total_invocations += 1
        return record

    def clone_shard(self, max_records: Optional[int] = None) -> "RumbaSystem":
        """A fresh system sharing this one's trained (immutable) models.

        The expensive offline artifacts — accelerator backend, cost and
        energy models, application — are shared by reference (they are
        read-only at run time); the predictor comes from its own
        ``clone_shard``: a checker without online state (treeErrors,
        linearErrors, Uniform, Ideal) is shared, a stateful one (EMA,
        Random) is copied with its state reset.  The mutable online state
        (tuner, detection module, recovery module, records) is rebuilt
        from scratch and seeded with the current thresholds.  This is how
        the serving layer stamps out one shard per worker from a single
        prepared prototype.  Ensemble systems clone the ensemble too: the
        NPU members share their immutable weights, a memo member shares
        its frozen table with fresh counters (each backend's
        ``clone_shard``), and the shard gets its own router over the
        shared, read-only fitted error predictors.
        """
        shard_ensemble = (
            self.ensemble.clone_shard() if self.ensemble is not None else None
        )
        clone = RumbaSystem(
            app=self.app,
            backend=(
                shard_ensemble.reference
                if shard_ensemble is not None
                else self.backend
            ),
            predictor=self.predictor.clone_shard(),
            config=self.config,
            energy_model=self.cost_model.energy_model,
            npu=self.cost_model.npu,
            overhead=self.cost_model.overhead,
            max_records=self.max_records if max_records is None else max_records,
            ensemble=shard_ensemble,
        )
        # Carry over any threshold calibration applied after construction
        # (prepare_system calibrates EMA/Random/Uniform TOQ thresholds).
        clone.tuner.threshold = self.tuner.threshold
        clone.tuner.history[-1] = clone.tuner.threshold
        clone.detection.threshold = self.detection.threshold
        clone.recovery.verify = self.recovery.verify
        return clone

    def run_stream(
        self, invocations: List[np.ndarray], measure_quality: bool = True
    ) -> List[InvocationRecord]:
        """Run a sequence of invocations (the online tuner adapts between)."""
        return [self.run_invocation(x, measure_quality) for x in invocations]

    # ------------------------------------------------------------------ #
    # Summaries                                                          #
    # ------------------------------------------------------------------ #
    @property
    def mean_fix_fraction(self) -> float:
        if not self.records:
            raise ConfigurationError("no invocations recorded")
        return float(np.mean([r.fix_fraction for r in self.records]))
