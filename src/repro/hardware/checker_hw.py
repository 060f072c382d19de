"""Cost models for the light-weight error-predictor hardware (paper Fig. 7).

The approximate accelerator is augmented with a small checker block.  Three
checker designs are modeled:

* **linear** — a MAC chain over the kernel inputs plus one threshold
  comparator (Fig. 7a): ``n_inputs`` multiply-adds and 1 compare per check.
* **tree** — a comparator walk down a depth-``d`` decision tree plus the
  threshold comparator (Fig. 7b): ``d + 1`` compares per check.
* **ema** — the exponential-moving-average detector: 2 multiplies, 1 add,
  1 subtract and 1 compare on the accelerator's output.

The checker shares the accelerator's technology point, so its per-op
energies mirror :class:`~repro.hardware.npu.NPUConfig`; a coefficient buffer
(circular, loaded once per kernel via the config queue) adds a small
per-check read energy.

Fig. 17 of the paper compares the checker latency to the NPU latency; use
:meth:`CheckerModel.relative_time` against an :class:`NPUModel` for that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.npu import NPUModel
from repro.nn.mlp import Topology

__all__ = ["CheckerCostParams", "CheckerModel"]

_KNOWN_KINDS = ("linear", "tree", "ema", "none")


@dataclass(frozen=True)
class CheckerCostParams:
    """Per-operation costs of the checker datapath.

    Gate counts are NAND2-equivalents for a 32-bit datapath, used by the
    area model (a 32-bit multiplier is ~6k gates, an adder ~300, a
    comparator ~150, and SRAM coefficient storage ~50 gates/word).
    """

    mac_energy_pj: float = 2.0
    compare_energy_pj: float = 0.8
    add_energy_pj: float = 1.0
    multiply_energy_pj: float = 1.6
    buffer_read_energy_pj: float = 0.5
    macs_per_cycle: float = 2.0
    compares_per_cycle: float = 2.0
    mac_gates: float = 6300.0
    adder_gates: float = 300.0
    comparator_gates: float = 150.0
    buffer_gates_per_word: float = 50.0

    def __post_init__(self) -> None:
        if self.macs_per_cycle <= 0 or self.compares_per_cycle <= 0:
            raise ConfigurationError("checker throughputs must be positive")


class CheckerModel:
    """Energy/latency of one dynamic check for a given checker kind.

    Parameters
    ----------
    kind:
        ``"linear"``, ``"tree"``, ``"ema"`` or ``"none"`` (the unchecked
        accelerator — zero cost).
    n_inputs:
        Width of the kernel input vector (linear checker MAC count).
    tree_depth:
        Depth of the decision tree (the paper caps this at 7).
    """

    def __init__(
        self,
        kind: str,
        n_inputs: int = 1,
        tree_depth: int = 7,
        params: CheckerCostParams = CheckerCostParams(),
    ):
        if kind not in _KNOWN_KINDS:
            raise ConfigurationError(
                f"unknown checker kind {kind!r}; choose from {_KNOWN_KINDS}"
            )
        if n_inputs <= 0:
            raise ConfigurationError("n_inputs must be positive")
        if tree_depth <= 0:
            raise ConfigurationError("tree_depth must be positive")
        self.kind = kind
        self.n_inputs = n_inputs
        self.tree_depth = tree_depth
        self.params = params

    def check_energy_pj(self) -> float:
        """Energy (pJ) of a single dynamic check."""
        p = self.params
        if self.kind == "none":
            return 0.0
        if self.kind == "linear":
            # n MACs + coefficient-buffer reads + threshold compare.
            return (
                self.n_inputs * (p.mac_energy_pj + p.buffer_read_energy_pj)
                + p.compare_energy_pj
            )
        if self.kind == "tree":
            # One compare + one buffer read per level, plus the threshold
            # compare on the predicted error at the leaf.
            return (
                self.tree_depth * (p.compare_energy_pj + p.buffer_read_energy_pj)
                + p.compare_energy_pj
            )
        # EMA: ema = e*alpha + prev*(1-alpha)  -> 2 mult + 1 add, then
        # |e - ema| -> 1 add(sub), then threshold compare.
        return (
            2.0 * p.multiply_energy_pj
            + 2.0 * p.add_energy_pj
            + p.compare_energy_pj
        )

    def check_cycles(self) -> float:
        """Latency (cycles) of a single dynamic check."""
        p = self.params
        if self.kind == "none":
            return 0.0
        if self.kind == "linear":
            return self.n_inputs / p.macs_per_cycle + 1.0
        if self.kind == "tree":
            # Tree levels are sequentially dependent: one compare per cycle.
            return self.tree_depth + 1.0
        return 3.0  # EMA: mult/add tree + compare

    def area_gates(self, coefficient_words: int = 0) -> float:
        """NAND2-equivalent gate count of the checker block (Fig. 7).

        The datapath is sized by throughput (``macs_per_cycle`` parallel
        MAC lanes for the linear checker, one comparator per pipeline
        stage for the tree) plus the coefficient buffer.
        """
        if coefficient_words < 0:
            raise ConfigurationError("coefficient_words must be >= 0")
        p = self.params
        buffer_gates = coefficient_words * p.buffer_gates_per_word
        if self.kind == "none":
            return 0.0
        if self.kind == "linear":
            lanes = max(int(round(p.macs_per_cycle)), 1)
            return lanes * p.mac_gates + p.comparator_gates + buffer_gates
        if self.kind == "tree":
            # One comparator stage; the walk is sequential (Fig. 7b).
            return p.comparator_gates * 2 + buffer_gates
        # EMA: two multipliers, adder, subtractor, comparator + state word.
        return (
            2 * p.mac_gates / 4.0  # multiplier-only lanes (no accumulate)
            + 2 * p.adder_gates
            + p.comparator_gates
            + p.buffer_gates_per_word
            + buffer_gates
        )

    def relative_time(self, npu: NPUModel, topology: Topology) -> float:
        """Checker latency normalized to one NPU invocation (paper Fig. 17).

        A value below 1.0 means the prediction is always ready before the
        accelerator finishes, i.e. checking never stalls the NPU.
        """
        npu_cycles = npu.invocation_cycles(topology)
        if npu_cycles <= 0:
            raise ConfigurationError("NPU invocation cycles must be positive")
        return self.check_cycles() / npu_cycles
