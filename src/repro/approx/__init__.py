"""Approximation backends behind the unified :class:`ApproxBackend` API.

Every technique — the NN-based NPU kernel replacement, fuzzy memoization,
loop perforation (row-wise and the mosaic image variant), and the
alternative accelerator substrates — speaks the same protocol
(:mod:`repro.approx.base`), so the detection/recovery machinery, the
serving tier, and the :mod:`repro.approx.ensemble` router treat them
interchangeably.
"""

from repro._lazy import lazy_exports

# Lazy, so importing one backend module does not first import them all:
# ``apps.mosaic`` imports ``approx.loop_perforation``, and an eager
# package would import ``perforation_backend``, which imports
# ``apps.mosaic`` back before it has finished initialising.
_EXPORTS = {
    "NoisyAnalogBackend": "alt_backends",
    "QuantizedKernelBackend": "alt_backends",
    "ApproxBackend": "base",
    "BackendBase": "base",
    "CostProfile": "base",
    "ApproximatorEnsemble": "ensemble",
    "EnsembleMember": "ensemble",
    "EnsembleSpec": "ensemble",
    "InvocationRouter": "ensemble",
    "build_ensemble": "ensemble",
    "perforated_mean": "loop_perforation",
    "perforation_mask": "loop_perforation",
    "MemoizationQualityManager": "memoization",
    "MemoizingBackend": "memoization",
    "NPUBackend": "npu_backend",
    "train_npu_backend": "npu_backend",
    "PerforatedKernelBackend": "perforation_backend",
    "PerforationOutcome": "perforation_backend",
    "PerforationQualityManager": "perforation_backend",
    "sample_statistics": "perforation_backend",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

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
