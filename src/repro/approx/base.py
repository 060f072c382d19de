"""What an ensemble member reports about its cost.

The serving ensemble (:mod:`repro.approx.ensemble`) runs two kinds of
member, :class:`~repro.approx.npu_backend.NPUBackend` and
:class:`~repro.approx.memoization.MemoizingBackend`.  Each provides
``__call__``, ``features``, ``forward_batch(out=)``, ``clone_shard`` and
``cost_profile(cost_model)``; the last returns a :class:`CostProfile`,
the one type the two backends and :func:`~repro.approx.ensemble.build_ensemble`
share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["CostProfile"]


@dataclass(frozen=True)
class CostProfile:
    """A backend's cost relative to exact CPU execution of the kernel.

    Attributes
    ----------
    relative_latency, relative_energy:
        Per-element latency/energy divided by the exact CPU kernel's
        (1.0 = as expensive as computing exactly; the NPU-class figures
        are well below 1).  These are the router's ranking signal.
    invocation_cycles:
        Absolute accelerator-stream cycles per element, when the backend
        can state them (the pipeline simulator consumes this); None for
        techniques without a hardware timing model.
    """

    relative_latency: float
    relative_energy: float
    invocation_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        if self.relative_latency <= 0 or self.relative_energy <= 0:
            raise ValueError("relative costs must be positive")
