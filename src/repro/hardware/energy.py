"""Analytical CPU energy and timing model (GEM5 + McPAT substitute).

The paper obtains CPU baseline energy by running each application in GEM5
and feeding the activity counts to McPAT (Sec. 4, Energy Modeling).  We do
not have either simulator offline, so this module implements the standard
event-based analytical substitute: each kernel iteration is summarized by an
:class:`InstructionMix` (dynamic instruction counts by class) and the model
charges

* a *front-end/out-of-order overhead* per instruction (fetch, decode,
  rename, ROB, issue-queue and commit energy — the dominant McPAT component
  for an OoO core),
* a per-class *functional unit* energy (integer ALU, FP unit, load/store,
  branch), and
* cache access energy for loads/stores split between L1 and L2 by a hit
  ratio.

Timing uses a bound-based (roofline-style) cycle model: the iteration takes
the maximum of its issue-width bound and its per-resource bounds (INT ALUs,
FPUs, load/store units), plus long-latency transcendental operations which
are modeled as unpipelined multi-cycle ops.

Absolute joules are not the point — the paper's claims are relative (3.2x
unchecked-NPU savings dropping to 2.2x with Rumba).  Energy is a sum of
per-event charges and involves no cycle count, so only these constants and
the NPU's per-event energies set the savings ratios; the cycle model sets
the speedups alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.microarch import MicroArchParams, TABLE2_X86_64

__all__ = ["InstructionMix", "EnergyModel"]


@dataclass(frozen=True)
class InstructionMix:
    """Dynamic instruction counts for one kernel iteration (one element).

    ``transcendentals`` counts exp/log/sqrt/trig library calls; each expands
    to ``TRANSCENDENTAL_EXPANSION`` FP operations in energy and occupies an
    FPU for ``TRANSCENDENTAL_LATENCY`` unpipelined cycles in timing.
    """

    int_ops: float = 0.0
    fp_ops: float = 0.0
    loads: float = 0.0
    stores: float = 0.0
    branches: float = 0.0
    transcendentals: float = 0.0

    def __post_init__(self) -> None:
        for name in ("int_ops", "fp_ops", "loads", "stores", "branches",
                     "transcendentals"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"instruction count {name} must be >= 0")

    @property
    def total_instructions(self) -> float:
        """All dynamic instructions, with transcendentals expanded."""
        return (
            self.int_ops
            + self.fp_ops
            + self.loads
            + self.stores
            + self.branches
            + self.transcendentals * EnergyModel.TRANSCENDENTAL_EXPANSION
        )


class EnergyModel:
    """Event-based CPU energy/timing model parameterized by Table 2.

    Per-event energies (pJ, 45 nm-class numbers in the range McPAT reports
    for a 3 GHz OoO x86 core):

    ==================  =====
    event               pJ
    ==================  =====
    front-end + OoO     45.0   (per committed instruction)
    INT ALU op          10.0
    FP op               25.0
    L1 access           20.0
    L2 access           90.0
    branch              12.0
    ==================  =====
    """

    #: FP-op expansion factor of one transcendental library call.
    TRANSCENDENTAL_EXPANSION: float = 20.0
    #: Unpipelined FPU occupancy (cycles) of one transcendental call.
    TRANSCENDENTAL_LATENCY: float = 40.0

    FRONTEND_PJ: float = 45.0
    INT_OP_PJ: float = 10.0
    FP_OP_PJ: float = 25.0
    L1_ACCESS_PJ: float = 20.0
    L2_ACCESS_PJ: float = 90.0
    BRANCH_PJ: float = 12.0

    def __init__(
        self,
        params: MicroArchParams = TABLE2_X86_64,
        l1_hit_ratio: float = 0.95,
        branch_mispredict_ratio: float = 0.02,
        mispredict_penalty_cycles: float = 14.0,
        effective_ipc: float = 1.5,
    ):
        if not (0.0 <= l1_hit_ratio <= 1.0):
            raise ConfigurationError("l1_hit_ratio must be in [0, 1]")
        if not (0.0 <= branch_mispredict_ratio <= 1.0):
            raise ConfigurationError("branch_mispredict_ratio must be in [0, 1]")
        if effective_ipc <= 0:
            raise ConfigurationError("effective_ipc must be positive")
        self.params = params
        self.l1_hit_ratio = l1_hit_ratio
        self.branch_mispredict_ratio = branch_mispredict_ratio
        self.mispredict_penalty_cycles = mispredict_penalty_cycles
        # Sustained IPC on pointer-and-branch-laden kernel code is far below
        # the 6-wide issue ceiling; GEM5 runs of these kernels land near 1.5.
        self.effective_ipc = min(effective_ipc, float(params.issue_width))

    # ------------------------------------------------------------------ #
    # Energy                                                             #
    # ------------------------------------------------------------------ #
    def iteration_energy_pj(self, mix: InstructionMix) -> float:
        """Energy (pJ) to execute one kernel iteration on the CPU."""
        fp_ops = mix.fp_ops + mix.transcendentals * self.TRANSCENDENTAL_EXPANSION
        mem_accesses = mix.loads + mix.stores
        cache_pj = mem_accesses * (
            self.l1_hit_ratio * self.L1_ACCESS_PJ
            + (1.0 - self.l1_hit_ratio) * (self.L1_ACCESS_PJ + self.L2_ACCESS_PJ)
        )
        return (
            mix.total_instructions * self.FRONTEND_PJ
            + mix.int_ops * self.INT_OP_PJ
            + fp_ops * self.FP_OP_PJ
            + cache_pj
            + mix.branches * self.BRANCH_PJ
        )

    # ------------------------------------------------------------------ #
    # Timing                                                             #
    # ------------------------------------------------------------------ #
    def iteration_cycles(self, mix: InstructionMix) -> float:
        """Cycles to execute one kernel iteration on the CPU.

        Bound-based: the iteration cannot retire faster than its issue-width
        bound nor faster than any single resource class allows; long-latency
        transcendentals serialize on the FPUs.
        """
        p = self.params
        issue_bound = mix.total_instructions / self.effective_ipc
        int_bound = mix.int_ops / p.int_alus
        fp_bound = (
            mix.fp_ops / p.fpus
            + mix.transcendentals * self.TRANSCENDENTAL_LATENCY / p.fpus
        )
        mem_bound = (mix.loads + mix.stores) / p.load_store_fus
        mem_stall = (mix.loads + mix.stores) * (1.0 - self.l1_hit_ratio) * (
            p.l2_hit_latency_cycles - p.l1_hit_latency_cycles
        )
        branch_stall = (
            mix.branches
            * self.branch_mispredict_ratio
            * self.mispredict_penalty_cycles
        )
        return (
            max(issue_bound, int_bound, fp_bound, mem_bound)
            + mem_stall
            + branch_stall
        )
