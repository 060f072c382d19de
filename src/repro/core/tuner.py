"""Online tuning of the detection threshold (paper Sec. 3.4).

The tuning threshold controls how many checks fire and therefore how many
iterations are re-executed.  The tuner adjusts it between invocations:

* **TOQ mode** — the threshold is held at the user's per-element error
  budget: every element whose *predicted* error exceeds the budget is
  recovered, so all elements are pushed above the target output quality.
* **Energy mode** — the user gives an iteration (energy) budget per
  invocation; the threshold is raised after an over-budget invocation and
  lowered after an under-budget one, converging on the largest fix rate
  the budget allows.
* **Quality mode** — maximize fixes while the CPU keeps up with the
  accelerator: if recovery finished early (CPU under-utilized), lower the
  threshold to fix more next time; if the CPU fell behind, raise it.

Threshold moves are multiplicative (``threshold_gain``), which adapts
quickly across decades of score scales and settles geometrically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import MutableSequence, Optional

from repro.core.config import RumbaConfig, TunerMode
from repro.errors import ConfigurationError

__all__ = ["OnlineTuner", "InvocationFeedback"]

_MIN_THRESHOLD = 1e-9


@dataclass
class InvocationFeedback:
    """What the runtime observed during one invocation.

    Attributes
    ----------
    fix_fraction:
        Fraction of iterations actually re-executed.
    cpu_kept_up:
        Whether recovery finished within the accelerator's makespan.
    cpu_utilization:
        CPU busy fraction during the invocation.
    """

    fix_fraction: float
    cpu_kept_up: bool = True
    cpu_utilization: float = 0.0


class OnlineTuner:
    """Per-invocation threshold controller.

    ``history`` holds the threshold after every move, newest last; with
    ``max_history`` it is a ring of that many entries (a serving shard
    passes its record window), otherwise it keeps every one.
    """

    def __init__(self, config: RumbaConfig, max_history: Optional[int] = None):
        self.config = config
        if config.mode == TunerMode.TOQ:
            # The dynamic check compares *predicted error* against the
            # element error budget directly.
            self.threshold = config.target_output_error
        else:
            self.threshold = config.initial_threshold
        self.history: MutableSequence[float] = (
            [self.threshold] if max_history is None
            else deque([self.threshold], maxlen=max_history)
        )
        self._gain = config.threshold_gain
        self._last_direction = 0
        self._degradation_level = 0
        # Optional degradation listener ``level -> None`` (the ensemble
        # router biases toward cheap members while degraded; set by
        # RumbaSystem, rebound after unpickling).
        self.on_degradation = None

    def __getstate__(self) -> dict:
        # The degradation listener closes over the owning system and is
        # rebound by RumbaSystem.__setstate__.
        state = self.__dict__.copy()
        state["on_degradation"] = None
        return state

    @property
    def mode(self) -> TunerMode:
        return self.config.mode

    def update(self, feedback: InvocationFeedback) -> float:
        """Adapt the threshold after an invocation; returns the new value."""
        if not (0.0 <= feedback.fix_fraction <= 1.0):
            raise ConfigurationError("fix_fraction must be in [0, 1]")
        direction = 0  # +1 raises the threshold (fewer fixes), -1 lowers it
        if self.mode == TunerMode.TOQ:
            # Fixed: the threshold *is* the user's error budget.
            pass
        elif self.mode == TunerMode.ENERGY:
            budget = self.config.iteration_budget_fraction
            if feedback.fix_fraction > budget:
                direction = +1              # over budget: fix fewer
            elif feedback.fix_fraction < budget:
                direction = -1              # headroom: fix more
        else:  # QUALITY
            if not feedback.cpu_kept_up:
                # CPU still had iterations when the accelerator finished.
                direction = +1
            elif feedback.cpu_utilization < 0.95:
                # CPU idle time left: it can fix more.
                direction = -1
        if direction != 0:
            # Shrink the step whenever the adjustment direction flips so
            # the controller settles instead of oscillating around the
            # target; a floor keeps it able to track drifting workloads.
            if self._last_direction and direction != self._last_direction:
                self._gain = max(1.0 + (self._gain - 1.0) * 0.5, 1.03)
            self.threshold *= self._gain ** direction
            self._last_direction = direction
        self.threshold = max(self.threshold, _MIN_THRESHOLD)
        self.history.append(self.threshold)
        return self.threshold

    # ------------------------------------------------------------------ #
    # Backpressure degradation (serving layer)                           #
    # ------------------------------------------------------------------ #
    @property
    def degradation_level(self) -> int:
        """How many un-relaxed backpressure degradations are in effect."""
        return self._degradation_level

    def degrade(self, factor: float | None = None) -> float:
        """Raise the threshold in response to external backpressure.

        Unlike :meth:`update`, this applies in every tuner mode — when the
        serving backlog grows faster than it drains, fixing
        *fewer* elements is the only lever that sheds recovery work, even
        in TOQ mode where the threshold is normally pinned to the error
        budget.  Each call is one degradation step; :meth:`relax` undoes
        one step.  Returns the new threshold.
        """
        factor = self.config.threshold_gain if factor is None else factor
        if factor <= 1.0:
            raise ConfigurationError("degrade factor must be > 1")
        self.threshold *= factor
        self._degradation_level += 1
        self.history.append(self.threshold)
        if self.on_degradation is not None:
            self.on_degradation(self._degradation_level)
        return self.threshold

    def relax(self, factor: float | None = None) -> float:
        """Undo one :meth:`degrade` step once the backlog drains.

        A no-op when no degradation is in effect, so callers can invoke it
        opportunistically on every quiet period.  Returns the threshold.
        """
        if self._degradation_level == 0:
            return self.threshold
        factor = self.config.threshold_gain if factor is None else factor
        if factor <= 1.0:
            raise ConfigurationError("relax factor must be > 1")
        self.threshold = max(self.threshold / factor, _MIN_THRESHOLD)
        self._degradation_level -= 1
        self.history.append(self.threshold)
        if self.on_degradation is not None:
            self.on_degradation(self._degradation_level)
        return self.threshold
