"""Configuration objects for the Rumba runtime."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigurationError

__all__ = ["TunerMode", "RumbaConfig"]


class TunerMode(Enum):
    """Online tuning modes (paper Sec. 3.4)."""

    TOQ = "toq"          # user specifies a target output quality
    ENERGY = "energy"    # user specifies an energy (iteration) budget
    QUALITY = "quality"  # maximize quality while the CPU keeps up


@dataclass
class RumbaConfig:
    """Runtime configuration of a Rumba system.

    Attributes
    ----------
    scheme:
        Detection scheme name ("linearErrors", "treeErrors", "EMA",
        "Ideal", "Random", "Uniform").
    mode:
        Online tuning mode.
    target_output_quality:
        TOQ mode: target quality in (0, 1]; 0.9 is the paper's setting
        (90% quality == 10% output error).
    iteration_budget_fraction:
        ENERGY mode: fraction of iterations the CPU may re-execute per
        invocation.
    initial_threshold:
        Starting tuning threshold on predictor scores.
    threshold_gain:
        Multiplicative step of the per-invocation threshold adaptation.
    detector_placement:
        Sec. 3.5: ``2`` (parallel with the accelerator, the paper's
        choice) or ``1`` (before the accelerator).
    """

    scheme: str = "treeErrors"
    mode: TunerMode = TunerMode.TOQ
    target_output_quality: float = 0.90
    iteration_budget_fraction: float = 0.25
    initial_threshold: float = 0.1
    threshold_gain: float = 1.25
    detector_placement: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.target_output_quality <= 1.0):
            raise ConfigurationError("target_output_quality must be in (0, 1]")
        if not (0.0 <= self.iteration_budget_fraction <= 1.0):
            raise ConfigurationError(
                "iteration_budget_fraction must be in [0, 1]"
            )
        if self.initial_threshold < 0.0:
            raise ConfigurationError("initial_threshold must be >= 0")
        if self.threshold_gain <= 1.0:
            raise ConfigurationError("threshold_gain must be > 1")
        if self.detector_placement not in (1, 2):
            raise ConfigurationError("detector_placement must be 1 or 2")

    @property
    def target_output_error(self) -> float:
        """The error budget implied by the target quality."""
        return 1.0 - self.target_output_quality
