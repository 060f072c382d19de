"""Timing and energy model of the 8-PE NPU-style approximate accelerator.

The accelerator (Esmaeilzadeh et al., MICRO'12) evaluates one MLP invocation
per kernel iteration.  Its cost is dominated by the multiply-add schedule
across the processing elements plus the sigmoid lookups, and by moving the
inputs/outputs through the core↔accelerator I/O queues.

The model charges, per invocation of a network with topology ``T``:

* ``ceil(macs_per_layer / n_pes)`` cycles of MAC issue per layer (PEs work
  in lock-step within a layer; layers are sequential),
* one cycle per non-input neuron for the sigmoid LUT lookup,
* queue transfer cycles for ``n_inputs + n_outputs`` words at the configured
  queue bandwidth,

and energy of one MAC / one LUT lookup / one queue word for each of those
events, plus a fixed invocation overhead.  MAC energy is far below a full
CPU instruction because the accelerator has no fetch/decode/rename/ROB —
that asymmetry is exactly where the NPU's 3x-class energy savings come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.nn.mlp import Topology

__all__ = ["NPUConfig", "NPUModel"]


@dataclass(frozen=True)
class NPUConfig:
    """Cost parameters of the NPU accelerator.

    Defaults model an 8-PE fixed-function MAC array at the same 45 nm-class
    technology point as the CPU model.
    """

    n_pes: int = 8
    mac_energy_pj: float = 2.0
    activation_energy_pj: float = 4.0
    queue_word_energy_pj: float = 6.0
    invocation_overhead_pj: float = 20.0
    queue_words_per_cycle: float = 2.0
    invocation_overhead_cycles: float = 4.0

    def __post_init__(self) -> None:
        if self.n_pes <= 0:
            raise ConfigurationError("n_pes must be positive")
        if self.queue_words_per_cycle <= 0:
            raise ConfigurationError("queue_words_per_cycle must be positive")
        for name in (
            "mac_energy_pj",
            "activation_energy_pj",
            "queue_word_energy_pj",
            "invocation_overhead_pj",
            "invocation_overhead_cycles",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")


class NPUModel:
    """Per-invocation cost model for a given network topology."""

    def __init__(self, config: NPUConfig = NPUConfig()):
        self.config = config

    def invocation_cycles(self, topology: Topology) -> float:
        """Cycles for one invocation (one kernel iteration)."""
        cfg = self.config
        mac_cycles = sum(
            math.ceil((a * b) / cfg.n_pes)
            for a, b in zip(topology.sizes[:-1], topology.sizes[1:])
        )
        activation_cycles = topology.n_neurons
        queue_cycles = (
            topology.n_inputs + topology.n_outputs
        ) / cfg.queue_words_per_cycle
        return (
            mac_cycles
            + activation_cycles
            + queue_cycles
            + cfg.invocation_overhead_cycles
        )

    def invocation_energy_pj(self, topology: Topology) -> float:
        """Energy (pJ) for one invocation."""
        cfg = self.config
        return (
            topology.n_multiply_adds * cfg.mac_energy_pj
            + topology.n_neurons * cfg.activation_energy_pj
            + (topology.n_inputs + topology.n_outputs) * cfg.queue_word_energy_pj
            + cfg.invocation_overhead_pj
        )

    def area_gates(self, topology: Topology,
                   mac_gates: float = 6300.0,
                   lut_gates: float = 2500.0,
                   buffer_gates_per_word: float = 50.0) -> float:
        """NAND2-equivalent gate count of the PE array for a kernel.

        Eight MAC processing elements, a sigmoid LUT unit, and weight
        storage sized for the network's parameters — the comparator the
        checkers are measured against (the paper's "light-weight" claim).
        """
        return (
            self.config.n_pes * mac_gates
            + lut_gates
            + topology.n_weights * buffer_gates_per_word
        )
