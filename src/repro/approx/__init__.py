"""Approximation backends behind the unified :class:`ApproxBackend` API.

Every technique — the NN-based NPU kernel replacement, fuzzy memoization,
loop perforation (row-wise and the mosaic image variant), and the
alternative accelerator substrates — speaks the same protocol
(:mod:`repro.approx.base`), so the detection/recovery machinery, the
serving tier, and the :mod:`repro.approx.ensemble` router treat them
interchangeably.
"""

from repro.approx.alt_backends import NoisyAnalogBackend, QuantizedKernelBackend
from repro.approx.base import ApproxBackend, BackendBase, CostProfile
from repro.approx.ensemble import (
    ApproximatorEnsemble,
    EnsembleMember,
    EnsembleSpec,
    InvocationRouter,
    build_ensemble,
)
from repro.approx.loop_perforation import perforated_mean, perforation_mask
from repro.approx.memoization import MemoizationQualityManager, MemoizingBackend
from repro.approx.npu_backend import NPUBackend, train_npu_backend
from repro.approx.perforation_backend import (
    PerforatedKernelBackend,
    PerforationOutcome,
    PerforationQualityManager,
    sample_statistics,
)

__all__ = [
    "ApproxBackend",
    "BackendBase",
    "CostProfile",
    "ApproximatorEnsemble",
    "EnsembleMember",
    "EnsembleSpec",
    "InvocationRouter",
    "build_ensemble",
    "NPUBackend",
    "train_npu_backend",
    "perforation_mask",
    "perforated_mean",
    "PerforatedKernelBackend",
    "PerforationQualityManager",
    "PerforationOutcome",
    "sample_statistics",
    "QuantizedKernelBackend",
    "NoisyAnalogBackend",
    "MemoizingBackend",
    "MemoizationQualityManager",
]
