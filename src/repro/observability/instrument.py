"""The :class:`Telemetry` facade — the reader of invocation records.

One ``Telemetry`` instance binds a metrics registry (and optionally a
flight recorder) to one running system.  The runtime stamps its stage
chain on every invocation record whether or not anyone is watching; an
attached telemetry is handed the finished record once, at the end of
``complete_invocation`` (:meth:`Telemetry.observe`), and derives every
loop metric, phase counter and flight record from it.  The serving core
feeds the same call from each worker's batch report, so a shard in
another process exports the same series.

The full metric catalog lives in ``docs/observability.md``; the names are
stable — dashboards and tests key off them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.observability.flightlog import FLIGHT_LOG_VERSION, FlightRecorder
from repro.observability.metrics import (
    DEFAULT_CYCLE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    get_default_registry,
)
from repro.observability.reqtrace import (
    STAGE_COMPUTE,
    STAGE_DETECT,
    STAGE_RECOVER,
    STAGE_ROUTE,
    STAGE_TUNE,
    segments,
)

__all__ = ["Telemetry", "PHASES"]

#: Phase names of the Fig. 4 loop, in execution order.
PHASES = ("accelerate", "detect", "recover", "tune")

#: The stages whose segment is a phase of the loop, under the phase name
#: the metrics have always used.  Every other stage of a chain
#: (``invoke``, ``measure``, ``shm_read``) is a hop
#: or the experimenter's instrument and never pollutes a phase timing.
_PHASE_OF_STAGE = {
    STAGE_ROUTE: "route",
    STAGE_COMPUTE: "accelerate",
    STAGE_DETECT: "detect",
    STAGE_RECOVER: "recover",
    STAGE_TUNE: "tune",
}
_MOVE_NAMES = {1: "raise", -1: "lower"}

class Telemetry:
    """Metrics + flight records for one quality-managed system.

    Parameters
    ----------
    app, scheme:
        Label values stamped on every series this instance writes.
    registry:
        Target registry; defaults to the process-global one.
    recorder:
        Optional :class:`FlightRecorder`: one timeline record per
        invocation, in the format ``python -m repro trace`` reads; when
        absent only metrics are kept.
    history:
        Length of the per-invocation history deques the dashboard plots.
    extra_labels:
        Additional constant labels stamped on every series, e.g.
        ``{"worker": "w0"}`` for the serving layer's per-worker shards.
        All telemetries sharing one registry must use the same extra
        label *names* (the registry enforces consistent label sets per
        metric family).
    """

    def __init__(
        self,
        app: str = "",
        scheme: str = "",
        registry: Optional[MetricsRegistry] = None,
        recorder: Optional[FlightRecorder] = None,
        history: int = 240,
        extra_labels: Optional[Mapping[str, str]] = None,
    ):
        self.registry = registry if registry is not None else get_default_registry()
        self.recorder = recorder
        self.app = app
        self.scheme = scheme
        extra = dict(extra_labels or {})
        for reserved in ("app", "scheme", "direction", "kept_up", "phase"):
            if reserved in extra:
                raise ConfigurationError(
                    f"extra label {reserved!r} is reserved"
                )
        labels = ("app", "scheme") + tuple(sorted(extra))
        ls = self._labels = {"app": app, "scheme": scheme, **extra}
        r = self.registry
        # Every series is bound to its child as it is registered: the
        # label set is constant for the lifetime of this Telemetry, so
        # resolving each child once here keeps dict-hashing and the
        # family lock off the per-invocation path (~30 labels() calls
        # per invocation otherwise).
        self._b_invocations = r.counter(
            "rumba_invocations_total", "Accelerator invocations processed", labels
        ).labels(**ls)
        self._b_elements = r.counter(
            "rumba_elements_total", "Output elements produced", labels
        ).labels(**ls)
        self._b_checks = r.counter(
            "rumba_checks_total", "Checker evaluations (one per element)", labels
        ).labels(**ls)
        self._b_fires = r.counter(
            "rumba_fires_total", "Checks that fired (recovery bit set)", labels
        ).labels(**ls)
        self._b_fire_rate = r.gauge(
            "rumba_fire_rate", "Fire fraction of the last invocation", labels
        ).labels(**ls)
        self._b_recovered = r.counter(
            "rumba_recovered_total", "Iterations re-executed exactly on the CPU",
            labels,
        ).labels(**ls)
        self._b_recovered_fraction = r.gauge(
            "rumba_recovered_fraction",
            "Recovered fraction of the last invocation", labels,
        ).labels(**ls)
        self._b_threshold = r.gauge(
            "rumba_threshold", "Current detection threshold (tuner output)",
            labels,
        ).labels(**ls)
        self._tuner_moves = r.counter(
            "rumba_tuner_moves_total", "Tuner threshold adjustments by direction",
            labels + ("direction",),
        )
        self._b_cpu_kept_up = r.gauge(
            "rumba_cpu_kept_up",
            "1 when recovery overlapped the accelerator last invocation",
            labels,
        ).labels(**ls)
        self._keepup = r.counter(
            "rumba_cpu_keepup_total", "Invocations by whether the CPU kept up",
            labels + ("kept_up",),
        )
        self._b_cpu_utilization = r.gauge(
            "rumba_cpu_utilization",
            "CPU busy fraction over the last invocation's makespan", labels,
        ).labels(**ls)
        self._b_measured_error = r.gauge(
            "rumba_measured_error",
            "Measured whole-output error after fixes (when measured)", labels,
        ).labels(**ls)
        self._b_unchecked_error = r.gauge(
            "rumba_unchecked_error",
            "Whole-output error without fixes (when measured)", labels,
        ).labels(**ls)
        self._b_latency = r.histogram(
            "rumba_invocation_latency_seconds",
            "Wall time of one full invocation through the loop", labels,
            buckets=DEFAULT_LATENCY_BUCKETS,
        ).labels(**ls)
        self._b_cycles = r.histogram(
            "rumba_invocation_cycles",
            "Modelled makespan of one invocation (cycles)", labels,
            buckets=DEFAULT_CYCLE_BUCKETS,
        ).labels(**ls)
        self._phase_spans = r.counter(
            "rumba_phase_spans_total", "Completed phase spans by phase",
            labels + ("phase",),
        )
        self._phase_seconds = r.counter(
            "rumba_phase_seconds_total", "Cumulative wall time by phase",
            labels + ("phase",),
        )
        self._b_tuner_moves = {
            name: self._tuner_moves.labels(direction=name, **ls)
            for name in ("raise", "lower", "hold")
        }
        self._b_keepup = {
            flag: self._keepup.labels(kept_up=flag, **ls)
            for flag in ("true", "false")
        }
        # Phase names arrive from callers; cache children as they appear.
        self._b_phase: Dict[str, tuple] = {}
        # Per-invocation history for the dashboard (bounded).
        self.history: Dict[str, Deque[float]] = {
            key: deque(maxlen=history)
            for key in (
                "fire_rate", "recovered_fraction", "threshold",
                "cpu_utilization", "measured_error", "latency_s",
            )
        }

    @property
    def labels(self) -> Dict[str, str]:
        """The label set this telemetry writes under (a copy).

        The public handle for dashboards and exporters that need to read
        back the series this instance created — no reaching into
        privates.
        """
        return dict(self._labels)

    @property
    def counted(self) -> Tuple[int, int]:
        """``(invocations, elements)``: its two running-count series."""
        return int(self._b_invocations.value), int(self._b_elements.value)

    # ------------------------------------------------------------------ #
    # The record reader                                                  #
    # ------------------------------------------------------------------ #
    def observe(
        self,
        stages: Sequence[Tuple[str, float]],
        facts: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Account one invocation from its stage chain and record facts.

        ``stages`` is the record's ``(stage, time.monotonic())`` chain and
        ``facts`` its :meth:`~repro.core.runtime.InvocationRecord.facts`
        (or a serving worker's batch report, which carries them).
        ``facts=None`` means the loop raised mid-invocation: the phases
        that did finish are accounted and the flight record is still
        written, flagged ``aborted`` so it is never mistaken for a
        completed invocation — only completed invocations count.
        """
        wall = stages[-1][1] - stages[0][1]
        self._b_latency.observe(wall)
        self.history["latency_s"].append(wall)
        for stage, seconds in segments(stages):
            phase = _PHASE_OF_STAGE.get(stage)
            if phase is None:
                continue
            children = self._b_phase.get(phase)
            if children is None:
                children = (
                    self._phase_spans.labels(phase=phase, **self._labels),
                    self._phase_seconds.labels(phase=phase, **self._labels),
                )
                self._b_phase[phase] = children
            children[0].inc()
            children[1].inc(seconds)
        if facts is not None:
            self._observe_facts(facts)
        if self.recorder is not None:
            t0 = stages[0][1]
            document = {
                "v": FLIGHT_LOG_VERSION,
                # The invocation's ordinal in this log, from 1: `trace 0`
                # would match every record's absent trace id.
                "request_id": self.recorder.written + 1,
                "app": self.app,
                "scheme": self.scheme,
                "latency_s": wall,
                "stages": [[stage, at - t0] for stage, at in stages],
            }
            if facts is None:
                document["aborted"] = True
            else:
                document["elements"] = facts["n_elements"]
                document["fix_fraction"] = facts["fix_fraction"]
            self.recorder.record(document)

    def _observe_facts(self, facts: Mapping[str, object]) -> None:
        """The per-invocation metrics of one completed record."""
        n = facts["n_elements"]
        self._b_invocations.inc()
        self._b_elements.inc(n)
        self._b_checks.inc(n)
        self._b_fires.inc(facts["n_fired"])
        self._b_fire_rate.set(facts["fire_fraction"])
        self._b_recovered.inc(facts["n_recovered"])
        self._b_recovered_fraction.set(facts["fix_fraction"])
        self.on_threshold(facts["threshold"], facts["tuner_move"])
        kept_up = bool(facts["cpu_kept_up"])
        self._b_cpu_kept_up.set(1.0 if kept_up else 0.0)
        self._b_keepup["true" if kept_up else "false"].inc()
        self._b_cpu_utilization.set(facts["cpu_utilization"])
        self._b_cycles.observe(facts["makespan_cycles"])
        history = self.history
        history["fire_rate"].append(facts["fire_fraction"])
        history["recovered_fraction"].append(facts["fix_fraction"])
        history["threshold"].append(facts["threshold"])
        history["cpu_utilization"].append(facts["cpu_utilization"])
        measured = facts.get("measured_error")
        if measured is not None:
            self._b_measured_error.set(measured)
            history["measured_error"].append(measured)
        unchecked = facts.get("unchecked_error")
        if unchecked is not None:
            self._b_unchecked_error.set(unchecked)

    # ------------------------------------------------------------------ #
    # Events outside an invocation                                       #
    # ------------------------------------------------------------------ #
    def on_tuner_move(self, direction: int) -> None:
        """Count one threshold adjustment (+1 raise, -1 lower, 0 hold)."""
        self._b_tuner_moves[_MOVE_NAMES.get(direction, "hold")].inc()

    def on_threshold(self, threshold: float, direction: int) -> None:
        """Publish the threshold and count the move that produced it: each
        invocation's tuner update, or (direction 0) the value a reader
        starts from."""
        self._b_threshold.set(threshold)
        self.on_tuner_move(direction)
