"""Quality-sampling monitor — the Green/SAGE-style baseline (paper Sec. 6).

Prior frameworks check output quality *once every N invocations*: the
checked invocation is run both exactly and approximately, the qualities
are compared, and a failing invocation is recovered (and/or the
approximation recalibrated).  The paper's Challenge II/III argument is
that input-dependent quality slips through the unchecked N-1 invocations.

:class:`QualitySamplingMonitor` implements that policy over a stream of
invocation errors so experiments can quantify exactly what sampling
misses relative to Rumba's continuous checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SamplingReport", "QualitySamplingMonitor"]


@dataclass
class SamplingReport:
    """Outcome of sampling-based monitoring over a stream.

    ``errors_after`` holds the per-invocation error after any recoveries;
    a *bad* invocation is one whose approximate error exceeded the target.
    """

    errors_before: np.ndarray
    errors_after: np.ndarray
    checked: np.ndarray        # bool per invocation
    recovered: np.ndarray      # bool per invocation
    target_error: float

    @property
    def n_invocations(self) -> int:
        return int(self.errors_before.size)

    @property
    def n_checked(self) -> int:
        return int(self.checked.sum())

    @property
    def n_recovered(self) -> int:
        return int(self.recovered.sum())

    @property
    def bad_invocations(self) -> np.ndarray:
        return self.errors_before > self.target_error

    @property
    def n_missed_bad(self) -> int:
        """Bad invocations that sailed through unchecked (the paper's
        Challenge II failure mode)."""
        return int((self.bad_invocations & ~self.checked).sum())

    @property
    def miss_rate(self) -> float:
        n_bad = int(self.bad_invocations.sum())
        return self.n_missed_bad / n_bad if n_bad else 0.0

    @property
    def max_error_after(self) -> float:
        return float(self.errors_after.max())

    @property
    def exact_reexecution_fraction(self) -> float:
        """Fraction of invocations fully re-run (checks + recoveries both
        cost one exact execution)."""
        return (self.n_checked + 0.0) / self.n_invocations


class QualitySamplingMonitor:
    """Check quality once every ``check_every_n`` invocations.

    A checked invocation costs one exact execution (to measure quality);
    when it fails the target, its exact result is committed (recovery is
    free — the exact output already exists).  Unchecked invocations are
    never examined.
    """

    def __init__(self, check_every_n: int, target_error: float,
                 phase: int = 0):
        if check_every_n < 1:
            raise ConfigurationError("check_every_n must be >= 1")
        if target_error < 0:
            raise ConfigurationError("target_error must be >= 0")
        self.check_every_n = check_every_n
        self.target_error = target_error
        self.phase = phase % check_every_n

    def process_stream(self, invocation_errors: Sequence[float]) -> SamplingReport:
        """Apply the sampling policy to a stream of approximate errors."""
        errors = np.asarray(invocation_errors, dtype=float).ravel()
        if errors.size == 0:
            raise ConfigurationError("empty invocation stream")
        if np.any(errors < 0):
            raise ConfigurationError("invocation errors must be >= 0")
        indices = np.arange(errors.size)
        checked = (indices % self.check_every_n) == self.phase
        recovered = checked & (errors > self.target_error)
        after = errors.copy()
        after[recovered] = 0.0
        return SamplingReport(
            errors_before=errors,
            errors_after=after,
            checked=checked,
            recovered=recovered,
            target_error=self.target_error,
        )
