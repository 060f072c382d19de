"""Error-detector placement trade-off (paper Sec. 3.5, Fig. 9).

Input-based detectors can run *before* the accelerator (Configuration 1) or
*in parallel* with it (Configuration 2):

* Config 1 serializes checker and accelerator, adding the checker latency
  to every iteration — but when a check fires the accelerator invocation
  can be skipped entirely, saving its energy.
* Config 2 hides the checker latency (it is shorter than the accelerator's
  — Fig. 17) but pays accelerator energy even for iterations that will be
  recomputed anyway.

The paper picks Config 2 to avoid the performance overhead; this module
quantifies both so the ablation bench can show the crossover.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.checker_hw import CheckerModel
from repro.hardware.npu import NPUModel
from repro.nn.mlp import Topology

__all__ = ["PlacementCosts", "evaluate_placement"]


@dataclass(frozen=True)
class PlacementCosts:
    """Per-iteration accelerator-side costs under one placement."""

    cycles_per_iteration: float
    energy_pj_per_iteration: float


def evaluate_placement(
    configuration: int,
    npu: NPUModel,
    checker: CheckerModel,
    topology: Topology,
    fire_fraction: float,
) -> PlacementCosts:
    """Accelerator-side latency/energy per iteration for a placement.

    ``fire_fraction`` is the expected fraction of checks that fire (those
    iterations will be recomputed on the CPU regardless of placement).
    """
    if configuration not in (1, 2):
        raise ConfigurationError("configuration must be 1 or 2")
    if not (0.0 <= fire_fraction <= 1.0):
        raise ConfigurationError("fire_fraction must be in [0, 1]")
    npu_cycles = npu.invocation_cycles(topology)
    npu_energy = npu.invocation_energy_pj(topology)
    check_cycles = checker.check_cycles()
    check_energy = checker.check_energy_pj()

    if configuration == 1:
        # Checker first: latency adds up; fired iterations skip the
        # accelerator, saving its energy.
        cycles = check_cycles + npu_cycles
        energy = check_energy + (1.0 - fire_fraction) * npu_energy
    else:
        # Parallel: latency is the max of the two engines (the checker is
        # faster in practice — Fig. 17); the accelerator always runs.
        cycles = max(npu_cycles, check_cycles)
        energy = check_energy + npu_energy
    return PlacementCosts(
        cycles_per_iteration=cycles,
        energy_pj_per_iteration=energy,
    )
