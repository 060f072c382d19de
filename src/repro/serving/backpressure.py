"""Watermark-based backpressure over the serving core's backlog.

The paper's Fig. 8 pipeline only works when the CPU "keeps up" with the
accelerator; at service scale the observable symptom of workers that are
falling behind is a growing backlog — batches in flight plus the batches
the waiting requests would form
(:meth:`~repro.serving.batching.AdmissionQueue.backlog`).  The
controller watches that backlog and trades *quality* for *stability*:

* backlog above the **high watermark** → one level up: every batch
  dispatched from then on detects at a threshold one multiplicative step
  higher (``OnlineTuner.threshold_at``), so fewer elements are flagged
  and the CPU-side work shrinks;
* backlog at or below the **low watermark** → one level down, restoring
  quality as capacity returns.

The controller holds the level and nothing else: the serving core reads
it into each batch, and the worker runs the batch at that level.  No
worker holds a degraded threshold, so level 0 is every tuner's own value,
bit for bit.  Levels are bounded (``max_level``); combined with the
bounded admission queue this guarantees the service degrades gracefully
instead of growing queues without bound.
"""

from __future__ import annotations

import threading

from repro.errors import ConfigurationError

__all__ = ["BackpressureController"]


class BackpressureController:
    """Hysteresis controller mapping the backlog to quality steps."""

    def __init__(
        self,
        high_watermark: int,
        low_watermark: int,
        max_level: int = 8,
    ):
        if high_watermark <= low_watermark:
            raise ConfigurationError(
                "high_watermark must be above low_watermark"
            )
        if low_watermark < 0:
            raise ConfigurationError("low_watermark must be >= 0")
        if max_level < 1:
            raise ConfigurationError("max_level must be >= 1")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.max_level = max_level
        self._level = 0
        self._lock = threading.Lock()
        self.degrade_events = 0
        self.relax_events = 0

    @property
    def level(self) -> int:
        """Degradation steps currently in effect (0 = nominal quality)."""
        return self._level

    def update(self, backlog: int) -> int:
        """Feed the current backlog; returns -1/0/+1 for the step taken."""
        with self._lock:
            if backlog > self.high_watermark and self._level < self.max_level:
                self._level += 1
                self.degrade_events += 1
                return +1
            if backlog <= self.low_watermark and self._level > 0:
                self._level -= 1
                self.relax_events += 1
                return -1
            return 0

    def reset(self) -> None:
        """Relax every step still in effect (teardown path)."""
        with self._lock:
            self.relax_events += self._level
            self._level = 0
