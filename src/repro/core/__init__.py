"""Rumba core: detection, recovery, online tuning, the pipelined execution
model, the detector-placement trade-off and the end-to-end runtime."""

from repro._lazy import lazy_exports

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
    PurityReport,
    RecoveryModule,
    RecoveryResult,
    merge_outputs,
    verify_purity,
)
from repro.core.runtime import InvocationRecord, PendingInvocation, RumbaSystem
from repro.core.sampling_monitor import QualitySamplingMonitor, SamplingReport
from repro.core.stream import DriftDetector, QualityManagedStream, StreamStatus
from repro.core.tuner import InvocationFeedback, OnlineTuner

# The Sec. 2.2 survey is a CLI command, imported on first use.
_EXPORTS = {
    "KernelPattern": "purity_survey", "PATTERN_CATALOG": "purity_survey",
    "PuritySurvey": "purity_survey", "survey_purity": "purity_survey",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "RumbaConfig",
    "TunerMode",
    "DetectionModule",
    "DetectionResult",
    "RecoveryModule",
    "RecoveryResult",
    "merge_outputs",
    "verify_purity",
    "PurityReport",
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
    "KernelPattern",
    "PATTERN_CATALOG",
    "PuritySurvey",
    "survey_purity",
    "QualitySamplingMonitor",
    "SamplingReport",
    "DriftDetector",
    "QualityManagedStream",
    "StreamStatus",
]
