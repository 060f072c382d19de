"""Quality metrics and scheme analyses used by the evaluation."""

from repro.metrics.analysis import (
    SchemeQualityAnalysis,
    analyze_scheme_at_target,
    error_after_fixes,
    error_cdf,
    error_vs_fixed_curve,
    false_positive_rate,
    fixes_required_for_quality,
    rank_by_scores,
    relative_coverage,
)
from repro.metrics.quality import (
    concentrated_error_image,
    fig2_pair,
    mean_error_fraction,
    psnr,
    spread_error_image,
)

__all__ = [
    "error_cdf",
    "rank_by_scores",
    "error_after_fixes",
    "error_vs_fixed_curve",
    "fixes_required_for_quality",
    "false_positive_rate",
    "relative_coverage",
    "SchemeQualityAnalysis",
    "analyze_scheme_at_target",
    "psnr",
    "mean_error_fraction",
    "concentrated_error_image",
    "spread_error_image",
    "fig2_pair",
]
