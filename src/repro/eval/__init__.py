"""Evaluation harness: scheme scoring, per-figure experiments, and the
paper-vs-measured document (:mod:`repro.eval.fidelity`)."""

from repro.eval.experiments import quality_target_analysis
from repro.eval.schemes import evaluate_benchmark

__all__ = ["evaluate_benchmark", "quality_target_analysis"]
