"""Rumba core: detection, recovery, online tuning, the pipelined execution
model, the detector-placement trade-off and the end-to-end runtime."""

from repro.core.config import RumbaConfig, TunerMode
from repro.core.costs import AppCosts, CostModel, OffloadOverhead
from repro.core.detection import DetectionModule, DetectionResult
from repro.core.offline import clear_cache, prepare_backend, prepare_system
from repro.core.pipeline import (
    PipelineResult,
    max_keepup_fix_fraction,
    simulate_pipeline,
)
from repro.core.placement import PlacementCosts, evaluate_placement
from repro.core.recovery import (
    RecoveryModule,
    RecoveryResult,
    merge_outputs,
    verify_purity,
)
from repro.core.runtime import InvocationRecord, PendingInvocation, RumbaSystem
from repro.core.stream import DriftDetector, QualityManagedStream, StreamStatus
from repro.core.tuner import InvocationFeedback, OnlineTuner

__all__ = [
    "RumbaConfig",
    "TunerMode",
    "DetectionModule",
    "DetectionResult",
    "RecoveryModule",
    "RecoveryResult",
    "merge_outputs",
    "verify_purity",
    "OnlineTuner",
    "InvocationFeedback",
    "PipelineResult",
    "simulate_pipeline",
    "max_keepup_fix_fraction",
    "PlacementCosts",
    "evaluate_placement",
    "AppCosts",
    "CostModel",
    "OffloadOverhead",
    "RumbaSystem",
    "InvocationRecord",
    "PendingInvocation",
    "prepare_system",
    "prepare_backend",
    "clear_cache",
    "DriftDetector",
    "QualityManagedStream",
    "StreamStatus",
]
