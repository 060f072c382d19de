"""Approximation techniques and the serving ensemble built from them.

The runtime and the :mod:`repro.approx.ensemble` router run two backends:
the NN-based NPU kernel replacement (:mod:`repro.approx.npu_backend`) and
frozen fuzzy memoization (:mod:`repro.approx.memoization`), which share
only :class:`~repro.approx.base.CostProfile`.  Loop perforation
(:mod:`repro.approx.loop_perforation`) is the mosaic case study's
approximation; the Sec. 4 substrates are built by the fidelity row that
uses them (:mod:`repro.eval.fidelity`).
"""

from repro._lazy import lazy_exports

# Lazy, so importing one backend module does not first import them all:
# ``apps.mosaic`` needs only ``approx.loop_perforation``, not the
# ensemble, the NPU backend and the networks behind them.
_EXPORTS = {
    "CostProfile": "base",
    "ApproximatorEnsemble": "ensemble",
    "EnsembleMember": "ensemble",
    "EnsembleSpec": "ensemble",
    "InvocationRouter": "ensemble",
    "build_ensemble": "ensemble",
    "perforated_mean": "loop_perforation",
    "perforation_mask": "loop_perforation",
    "MemoizingBackend": "memoization",
    "NPUBackend": "npu_backend",
    "train_npu_backend": "npu_backend",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
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
    "MemoizingBackend",
]
