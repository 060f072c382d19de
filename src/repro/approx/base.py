"""The unified ``ApproxBackend`` API every approximation technique speaks.

Rumba's design is accelerator-agnostic (Sec. 4: "the core principles can
be applied to a variety of approximation accelerators"), but until this
module the repo's five techniques — the NPU MLP, fuzzy memoization, loop
perforation, the quantized datapath and the noisy-analog datapath — were
five ad-hoc ``__call__`` classes with incompatible construction, cost
reporting and fused-path support.  :class:`ApproxBackend` is the shared
contract that makes them interchangeable, and in particular ensemble-able
(see :mod:`repro.approx.ensemble`):

``__call__(inputs) -> outputs``
    Approximate the kernel for a ``(n, n_app_inputs)`` batch.
``features(inputs)``
    The checker-facing feature projection of the same batch.
``forward_batch(x, out=, scratch=)``
    The fused entry point: same values as ``__call__`` (to ~1e-9) but
    writing into caller-owned memory, so the serving layer's zero-copy
    batch path can route per-backend sub-batches without extra copies.
``cost_profile(cost_model=None)``
    Relative latency/energy versus exact CPU execution (measured from
    :class:`~repro.core.costs.CostModel` when one is supplied).
``reset_state()`` / ``clone_shard()``
    Shard hygiene: stateful techniques (memoization's table, the analog
    backend's noise stream) must not leak accumulated runtime state
    across :meth:`RumbaSystem.clone_shard` — the same bug class the EMA
    predictor needed ``reset_state`` for in PR 4.

Every backend must survive ``pickle`` round trips (the process serving
backend ships prepared systems to worker processes) and produce
bit-identical outputs after unpickling, given identical runtime state.

:class:`BackendBase` provides conforming defaults for stateless
techniques so each backend only overrides what it must.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ApproxBackend",
    "BackendBase",
    "CostProfile",
]


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


@runtime_checkable
class ApproxBackend(Protocol):
    """Runtime-checkable protocol for approximate kernel backends.

    ``isinstance(obj, ApproxBackend)`` verifies the full surface, which
    is what the conformance suite and :class:`ApproximatorEnsemble`
    check before accepting a backend.
    """

    name: str
    quality_class: int

    def __call__(self, inputs: np.ndarray) -> np.ndarray: ...

    def features(self, inputs: np.ndarray) -> np.ndarray: ...

    def forward_batch(
        self,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
        scratch: Optional[object] = None,
    ) -> np.ndarray: ...

    def cost_profile(self, cost_model: Optional[object] = None) -> CostProfile: ...

    def reset_state(self) -> None: ...

    def clone_shard(self) -> "ApproxBackend": ...


class BackendBase:
    """Conforming defaults for the :class:`ApproxBackend` surface.

    Subclasses set :attr:`name`/:attr:`quality_class` and override the
    methods whose defaults do not apply: stateful techniques must
    implement real :meth:`reset_state`/:meth:`clone_shard`, and
    techniques with a hardware cost model should compute
    :meth:`cost_profile` from it instead of the static estimate.
    """

    #: Technique identifier (stable across runs; used in metrics labels).
    name: str = "backend"
    #: Quality rank among sibling techniques (0 = highest quality).
    quality_class: int = 0
    #: Static fallback estimates for :meth:`cost_profile`; subclasses
    #: with a real hardware model override the method instead.
    _static_relative_latency: float = 0.5
    _static_relative_energy: float = 0.5

    def forward_batch(
        self,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
        scratch: Optional[object] = None,
    ) -> np.ndarray:
        """Evaluate a batch, writing into ``out`` when provided.

        The default computes via ``__call__`` and copies into the
        caller's buffer; backends with a genuinely fused kernel (the
        NPU MLP) override this to skip the copy.  ``scratch`` is an
        optional backend-owned workspace token, ignored by default.
        """
        result = self(x)
        if out is None:
            return result
        out[...] = result
        return out

    def cost_profile(
        self, cost_model: Optional[object] = None
    ) -> CostProfile:
        """Relative cost versus the exact CPU kernel.

        The default reports the class's static estimates; ``cost_model``
        (a :class:`~repro.core.costs.CostModel`) is accepted so callers
        can treat all backends uniformly even though only some use it.
        """
        return CostProfile(
            relative_latency=self._static_relative_latency,
            relative_energy=self._static_relative_energy,
        )

    def reset_state(self) -> None:
        """Drop accumulated runtime state (default: stateless no-op)."""

    def clone_shard(self) -> "BackendBase":
        """A backend for a fresh shard.

        Stateless/immutable backends may return ``self`` (shared by
        reference, like the trained NPU weights); stateful ones must
        return an instance whose runtime state is independent.
        """
        return self
