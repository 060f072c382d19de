"""Pipelined CPU/accelerator execution model (paper Fig. 8 and Fig. 18).

The accelerator streams through iterations while the CPU re-computes
flagged iterations in parallel: iteration ``i``'s recovery bit becomes
available when the accelerator finishes ``i`` (detector placement 2 — the
parallel configuration the paper evaluates; with placement 1 the verdict is
available before the accelerator even starts).  The CPU serves flagged
iterations FIFO.

The simulator reports the makespan, CPU/accelerator busy time, whether the
CPU kept up, and an activity trace (the bottom half of Fig. 18).  The
paper's keep-up rule of thumb falls out: with an accelerator ``S``x faster
than the CPU per iteration, the CPU sustains a fix rate of ``1/S`` without
extending the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["PipelineResult", "simulate_pipeline", "max_keepup_fix_fraction"]


@dataclass
class PipelineResult:
    """Timing outcome of one pipelined invocation.

    All times are in cycles.
    """

    n_iterations: int
    n_recovered: int
    accel_finish: float
    makespan: float
    cpu_busy: float
    cpu_service_cycles: float = 0.0
    # The flagged iterations' verdict arrival times, in service order:
    # segments are derived only when read (Fig. 18), which the serving
    # hot path never does.
    _arrivals: Optional[np.ndarray] = field(default=None, repr=False)

    def _service(self) -> Tuple[np.ndarray, np.ndarray]:
        """Start and end times of every re-execution, in service order.

        The FIFO recurrence  end_i = max(arrival_i, end_{i-1}) + cpu
        unrolls to  end_i = (i+1)*cpu + max_{j<=i}(arrival_j - j*cpu), a
        running maximum: one ``np.maximum.accumulate``.
        """
        cpu = self.cpu_service_cycles
        rank = np.arange(self.n_recovered, dtype=float)
        ends = (np.maximum.accumulate(self._arrivals - rank * cpu)
                + (rank + 1.0) * cpu)
        return ends - cpu, ends

    @property
    def cpu_kept_up(self) -> bool:
        """True when recovery throughput matched the accelerator.

        The recovery of the very last flagged iteration necessarily drains
        *after* the accelerator's final iteration (its verdict only arrives
        then), so keep-up is judged with a small drain allowance (one CPU
        service time, or 0.5% of the run for long invocations) — the
        paper's "keep up with the accelerator" is a throughput statement
        (Sec. 3.3).
        """
        allowance = max(self.cpu_service_cycles, 0.005 * self.accel_finish)
        return self.makespan <= self.accel_finish + allowance + 1e-9

    @property
    def cpu_utilization(self) -> float:
        """CPU busy fraction over the makespan."""
        return self.cpu_busy / self.makespan if self.makespan > 0 else 0.0

    def activity_trace(self, resolution: int = 1) -> np.ndarray:
        """0/1 CPU-activity samples over the makespan (Fig. 18, bottom).

        ``resolution`` is the sample spacing in cycles.
        """
        if resolution <= 0:
            raise ConfigurationError("resolution must be positive")
        n_samples = int(np.ceil(self.makespan / resolution)) + 1
        trace = np.zeros(n_samples, dtype=int)
        if self._arrivals is not None:
            for start, end in zip(*self._service()):
                lo = int(start // resolution)
                hi = int(np.ceil(end / resolution))
                trace[lo:hi] = 1
        return trace


def simulate_pipeline(
    flagged: np.ndarray,
    n_iterations: int,
    accel_cycles_per_iteration: float,
    cpu_cycles_per_iteration: float,
    detector_placement: int = 2,
    checker_cycles: float = 0.0,
) -> PipelineResult:
    """Simulate one invocation's CPU/accelerator overlap.

    Parameters
    ----------
    flagged:
        Ascending indices of the iterations the CPU must re-execute (the
        recovery's ``recovery_indices``) out of ``n_iterations``.
    accel_cycles_per_iteration, cpu_cycles_per_iteration:
        Per-iteration service times of the two engines.
    detector_placement:
        Sec. 3.5 configuration.  With 1 the checker *precedes* each
        accelerator invocation, adding ``checker_cycles`` of latency per
        iteration to the accelerator stream but making verdicts available
        at iteration start; with 2 (default) checking is parallel and
        verdicts arrive when the accelerator finishes the iteration.
    """
    if n_iterations == 0:
        return PipelineResult(0, 0, 0.0, 0.0, 0.0)
    if accel_cycles_per_iteration <= 0 or cpu_cycles_per_iteration <= 0:
        raise ConfigurationError("cycle counts must be positive")
    if detector_placement not in (1, 2):
        raise ConfigurationError("detector_placement must be 1 or 2")

    if detector_placement == 1:
        effective_accel = accel_cycles_per_iteration + checker_cycles
        # Verdict for iteration i is ready when its check completes,
        # i.e. before the accelerator processes it.
        arr = flagged * effective_accel + checker_cycles
    else:
        effective_accel = accel_cycles_per_iteration
        arr = (flagged + 1) * effective_accel

    accel_finish = n_iterations * effective_accel
    k = flagged.size
    cpu = cpu_cycles_per_iteration
    if k == 0:
        return PipelineResult(
            n_iterations=n_iterations,
            n_recovered=0,
            accel_finish=accel_finish,
            makespan=accel_finish,
            cpu_busy=0.0,
            cpu_service_cycles=cpu,
        )
    # The last end of PipelineResult._service's running maximum, bit for
    # bit: its maximum over every flagged iteration, plus k services.
    last_end = float(np.max(arr - np.arange(k, dtype=float) * cpu) + k * cpu)
    return PipelineResult(
        n_iterations=n_iterations,
        n_recovered=k,
        accel_finish=accel_finish,
        makespan=max(accel_finish, last_end),
        cpu_busy=k * cpu,
        cpu_service_cycles=cpu,
        _arrivals=arr,
    )


def max_keepup_fix_fraction(
    accel_cycles_per_iteration: float, cpu_cycles_per_iteration: float
) -> float:
    """Largest fix fraction the CPU sustains without extending the makespan.

    Equals the inverse of the accelerator's per-iteration speedup (Sec. 3.3:
    "the CPU can recompute 50% of the output elements, assuming a 2x gain"),
    capped at 1.
    """
    if accel_cycles_per_iteration <= 0 or cpu_cycles_per_iteration <= 0:
        raise ConfigurationError("cycle counts must be positive")
    return min(accel_cycles_per_iteration / cpu_cycles_per_iteration, 1.0)
