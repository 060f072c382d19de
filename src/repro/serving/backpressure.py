"""Watermark-based backpressure over the serving core's backlog.

The paper's Fig. 8 pipeline only works when the CPU "keeps up" with the
accelerator; at service scale the observable symptom of workers that are
falling behind is a growing backlog — batches in flight plus the batches
the waiting requests would form
(:meth:`~repro.serving.batching.AdmissionQueue.backlog`).  The
controller watches that backlog and trades *quality* for *stability*:

* backlog above the **high watermark** → raise every shard's detection
  threshold one multiplicative step (``RumbaSystem.apply_backpressure``),
  so fewer elements are flagged and the CPU-side work shrinks;
* backlog at or below the **low watermark** → relax one step, restoring
  quality as capacity returns.

Steps are bounded (``max_level``) and symmetric, so the threshold always
returns to its tuned value once the overload clears.  Combined with the
bounded admission queue this guarantees the service degrades gracefully
instead of growing queues without bound.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from repro.core.runtime import RumbaSystem
from repro.errors import ConfigurationError

__all__ = ["BackpressureController", "DEGRADE_FACTOR"]

#: Multiplicative threshold step per degradation level.
DEGRADE_FACTOR = 1.5


class BackpressureController:
    """Hysteresis controller mapping the backlog to quality steps."""

    def __init__(
        self,
        shards: Sequence[RumbaSystem],
        high_watermark: int,
        low_watermark: int,
        factor: float = DEGRADE_FACTOR,
        max_level: int = 8,
    ):
        if high_watermark <= low_watermark:
            raise ConfigurationError(
                "high_watermark must be above low_watermark"
            )
        if low_watermark < 0:
            raise ConfigurationError("low_watermark must be >= 0")
        if factor <= 1.0:
            raise ConfigurationError("degradation factor must be > 1")
        if max_level < 1:
            raise ConfigurationError("max_level must be >= 1")
        self._shards = list(shards)
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.factor = factor
        self.max_level = max_level
        self._level = 0
        self._lock = threading.Lock()
        self.degrade_events = 0
        self.relax_events = 0

    @property
    def level(self) -> int:
        """Degradation steps currently in effect (0 = nominal quality)."""
        return self._level

    @property
    def degraded(self) -> bool:
        return self._level > 0

    def update(self, backlog: int) -> int:
        """Feed the current backlog; returns -1/0/+1 for the step taken."""
        with self._lock:
            if backlog > self.high_watermark and self._level < self.max_level:
                for shard in self._shards:
                    shard.apply_backpressure(+1, self.factor)
                self._level += 1
                self.degrade_events += 1
                return +1
            if backlog <= self.low_watermark and self._level > 0:
                for shard in self._shards:
                    shard.apply_backpressure(-1, self.factor)
                self._level -= 1
                self.relax_events += 1
                return -1
            return 0

    def reset(self) -> None:
        """Relax every step still in effect (teardown path)."""
        with self._lock:
            while self._level > 0:
                for shard in self._shards:
                    shard.apply_backpressure(-1, self.factor)
                self._level -= 1
                self.relax_events += 1
