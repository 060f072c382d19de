"""Hardware substrate models: CPU energy/timing (GEM5+McPAT substitute),
the 8-PE NPU accelerator and the checker datapaths of Fig. 7.
"""

from repro.hardware.checker_hw import CheckerCostParams, CheckerModel
from repro.hardware.energy import EnergyModel, InstructionMix
from repro.hardware.microarch import TABLE2_X86_64, MicroArchParams
from repro.hardware.npu import NPUConfig, NPUModel

__all__ = [
    "MicroArchParams",
    "TABLE2_X86_64",
    "EnergyModel",
    "InstructionMix",
    "NPUConfig",
    "NPUModel",
    "CheckerModel",
    "CheckerCostParams",
]
