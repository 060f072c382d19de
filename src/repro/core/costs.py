"""Whole-application energy and timing accounting (Figs. 14-16).

Combines the CPU model (GEM5+McPAT substitute), the NPU model, the checker
model and the pipelined-recovery model into per-element and whole-app
numbers.  The whole-application view applies the benchmark's offload
fraction (Amdahl term): only ``offload_fraction`` of baseline time/energy is
in the accelerated kernel; the rest runs identically under every scheme.

Scheme energy per element =
    non-kernel share
  + accelerator invocation (+ checker) energy          [placement-dependent]
  + CPU-side queue management overhead
  + fix_fraction x exact CPU re-execution energy.

Scheme time per element mirrors this, except recovery overlaps the
accelerator (Fig. 8): the kernel-region time is
``max(accelerator stream, CPU recovery stream)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apps.base import Application
from repro.core.placement import evaluate_placement
from repro.errors import ConfigurationError
from repro.hardware.checker_hw import CheckerModel
from repro.hardware.energy import EnergyModel, InstructionMix
from repro.hardware.npu import NPUModel
from repro.nn.mlp import Topology

__all__ = ["OffloadOverhead", "AppCosts", "CostModel"]


@dataclass(frozen=True)
class OffloadOverhead:
    """CPU-side queue management cost per offloaded element.

    The host still executes the enqueue/dequeue glue for every element it
    ships to the accelerator; ``instruction_mix`` is that glue's dynamic
    cost.  ``overlapped_cycles`` is the (small) per-element latency that
    cannot be hidden behind the accelerator.
    """

    instruction_mix: InstructionMix = field(
        default_factory=lambda: InstructionMix(int_ops=14, loads=3, stores=3)
    )
    overlapped_cycles: float = 2.0


@dataclass(frozen=True)
class AppCosts:
    """Whole-application costs, normalized per output element."""

    baseline_energy_pj: float
    scheme_energy_pj: float
    baseline_cycles: float
    scheme_cycles: float
    fix_fraction: float

    @property
    def energy_savings(self) -> float:
        """Baseline-CPU energy divided by scheme energy (higher is better)."""
        return self.baseline_energy_pj / self.scheme_energy_pj

    @property
    def normalized_energy(self) -> float:
        """Scheme energy as a fraction of the CPU baseline (Fig. 14 bars)."""
        return self.scheme_energy_pj / self.baseline_energy_pj

    @property
    def speedup(self) -> float:
        """Baseline-CPU time divided by scheme time (Fig. 15 bars)."""
        return self.baseline_cycles / self.scheme_cycles


class CostModel:
    """Energy/timing calculator for one benchmark under one scheme."""

    def __init__(
        self,
        app: Application,
        energy_model: Optional[EnergyModel] = None,
        npu: Optional[NPUModel] = None,
        overhead: Optional[OffloadOverhead] = None,
    ):
        self.app = app
        self.energy_model = energy_model or EnergyModel()
        self.npu = npu or NPUModel()
        self.overhead = overhead or OffloadOverhead()
        # The models are frozen once built: the CPU side is priced once.
        mix, glue = app.instruction_mix, self.overhead.instruction_mix
        self._cpu_energy = self.energy_model.iteration_energy_pj(mix)
        self._cpu_cycles = self.energy_model.iteration_cycles(mix)
        self._overhead_energy = self.energy_model.iteration_energy_pj(glue)

    # ------------------------------------------------------------------ #
    # Per-element building blocks                                        #
    # ------------------------------------------------------------------ #
    def cpu_iteration_energy_pj(self) -> float:
        return self._cpu_energy

    def cpu_iteration_cycles(self) -> float:
        return self._cpu_cycles

    # ------------------------------------------------------------------ #
    # Whole-application accounting                                       #
    # ------------------------------------------------------------------ #
    def whole_app_costs(
        self,
        topology: Topology,
        checker: CheckerModel,
        fix_fraction: float,
        detector_placement: int = 2,
        observed_kernel_cycles: Optional[float] = None,
    ) -> AppCosts:
        """Whole-app energy/cycles per element for a scheme configuration.

        ``fix_fraction`` is the fraction of elements re-executed on the
        CPU; pass 0 with a ``"none"`` checker for the unchecked NPU.

        ``observed_kernel_cycles`` optionally replaces the analytical
        kernel-region estimate with a measured per-element figure (the
        runtime passes the pipeline simulator's makespan, which accounts
        for bursty recovery demand that the uniform-spread estimate
        cannot see).
        """
        accel_side = evaluate_placement(
            detector_placement, self.npu, checker, topology, fix_fraction
        )
        return self.accelerated_app_costs(
            accel_side.energy_pj_per_iteration,
            accel_side.cycles_per_iteration,
            fix_fraction,
            observed_kernel_cycles,
        )

    def accelerated_app_costs(
        self,
        accel_energy_pj: float,
        accel_cycles: float,
        fix_fraction: float,
        observed_kernel_cycles: Optional[float] = None,
    ) -> AppCosts:
        """Whole-app energy/cycles per element around one accelerator side.

        ``accel_energy_pj`` and ``accel_cycles`` are what the accelerator
        (checker included) spends per iteration; :meth:`whole_app_costs`
        takes them from the NPU placement model, an ensemble member
        without an NPU from its measured cost profile.  The Amdahl term,
        the queue glue and the overlapped CPU recovery are added here.
        """
        if not (0.0 <= fix_fraction <= 1.0):
            raise ConfigurationError("fix_fraction must be in [0, 1]")
        f = self.app.offload_fraction
        cpu_energy, cpu_cycles = self._cpu_energy, self._cpu_cycles

        # Baseline whole-app (per element): kernel is fraction f of it.
        baseline_energy = cpu_energy / f
        baseline_cycles = cpu_cycles / f
        non_kernel_energy = baseline_energy * (1.0 - f)
        non_kernel_cycles = baseline_cycles * (1.0 - f)

        # Kernel-region time: accelerator stream vs overlapped CPU recovery
        # (Fig. 8), plus the un-hideable queue glue.
        accel_stream = accel_cycles + self.overhead.overlapped_cycles
        if observed_kernel_cycles is not None:
            kernel_cycles = max(observed_kernel_cycles, accel_stream)
        else:
            recovery_stream = fix_fraction * cpu_cycles
            kernel_cycles = max(accel_stream, recovery_stream)

        scheme_energy = (
            non_kernel_energy
            + accel_energy_pj
            + self._overhead_energy
            + fix_fraction * cpu_energy
        )
        scheme_cycles = non_kernel_cycles + kernel_cycles
        return AppCosts(
            baseline_energy_pj=baseline_energy,
            scheme_energy_pj=scheme_energy,
            baseline_cycles=baseline_cycles,
            scheme_cycles=scheme_cycles,
            fix_fraction=fix_fraction,
        )
