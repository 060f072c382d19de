"""Evaluation harness: scheme scoring, per-figure experiments, and the
paper-vs-measured document (:mod:`repro.eval.fidelity`)."""

from repro._lazy import lazy_exports
from repro.eval.experiments import (
    DEFAULT_TARGET_ERROR,
    ActivityCaseStudy,
    GaussianCaseStudy,
    HeadlineSummary,
    SchemeCostRow,
    cpu_activity_case_study,
    energy_speedup_table,
    energy_vs_toq,
    error_vs_fixed_sweep,
    gaussian_case_study,
    geomean,
    headline_summary,
    prediction_time_table,
    quality_target_analysis,
)
from repro.eval.ascii_plots import bar_chart, line_chart, sparkline
from repro.eval.schemes import (
    BenchmarkEvaluation,
    clear_evaluation_cache,
    evaluate_benchmark,
)

# ``python -m repro.eval.fidelity`` rewrites the committed snapshot; were
# the module imported here, runpy would find it loaded and warn.
_EXPORTS = {"generate_report": "fidelity"}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "DEFAULT_TARGET_ERROR",
    "BenchmarkEvaluation",
    "evaluate_benchmark",
    "clear_evaluation_cache",
    "error_vs_fixed_sweep",
    "quality_target_analysis",
    "SchemeCostRow",
    "energy_speedup_table",
    "energy_vs_toq",
    "prediction_time_table",
    "GaussianCaseStudy",
    "gaussian_case_study",
    "ActivityCaseStudy",
    "cpu_activity_case_study",
    "HeadlineSummary",
    "headline_summary",
    "geomean",
    "bar_chart",
    "line_chart",
    "sparkline",
    "generate_report",
]
