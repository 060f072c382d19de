"""Benchmark applications (paper Table 1) plus the mosaic case study.

Each module defines an exact pure kernel, input generators, and the
application-specific quality metric; :mod:`repro.apps.registry` exposes the
suite as :func:`get_application` / :func:`all_applications`.
"""

from repro.apps.base import (
    Application,
    absolute_errors,
    mean_absolute_diff,
    mean_relative_error,
    mismatch_errors,
    mismatch_fraction,
    relative_errors,
)
from repro.apps.workloads import invocation_stream
from repro.apps.registry import (
    APPLICATION_NAMES,
    all_applications,
    get_application,
)

__all__ = [
    "Application",
    "relative_errors",
    "mean_relative_error",
    "mismatch_errors",
    "mismatch_fraction",
    "absolute_errors",
    "mean_absolute_diff",
    "APPLICATION_NAMES",
    "get_application",
    "all_applications",
    "invocation_stream",
]
