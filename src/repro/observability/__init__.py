"""Observability for the online quality-management loop.

Rumba's value proposition is *online*: the Fig. 4 detect → recover → tune
loop runs continuously at deployment, and the quantities the paper's
evaluation is built on (fire rate, recovered fraction, CPU recovery
pressure, threshold trajectory, drift flags) are exactly the quantities an
operator must watch in production.  This package makes them first-class:

* :mod:`repro.observability.metrics` — a zero-dependency, thread-safe
  metrics registry (labelled counters / gauges / fixed-bucket histograms)
  with a process-global default registry,
* :mod:`repro.observability.instrument` — the :class:`Telemetry` facade
  that reads each finished invocation record into loop metrics, phase
  counters and (given a recorder) one flight record per invocation,
* :mod:`repro.observability.export` — Prometheus text exposition and JSON
  snapshots,
* :mod:`repro.observability.dashboard` — a live ASCII dashboard for
  terminals (``python -m repro monitor``),
* :mod:`repro.observability.reqtrace` — per-request traces for the
  serving stack: stage-stamped timelines that follow a request through
  admission, batching, the shm hop, compute, detection, recovery, and
  retries (``rumba_stage_seconds``),
* :mod:`repro.observability.flightlog` — the append-only, size-capped
  flight recorder for sampled request traces and ``monitor --trace``
  invocation timelines, browsed with ``python -m repro trace``.

The metric catalog is documented in ``docs/observability.md``.
"""

from repro.observability.dashboard import render_dashboard
from repro.observability.export import (
    json_snapshot,
    prometheus_text,
    write_snapshot,
)
from repro.observability.flightlog import (
    FlightRecorder,
    aggregate_stages,
    format_record_line,
    format_waterfall,
    iter_flight_records,
    read_flight_log,
)
from repro.observability.instrument import (
    Telemetry,
    ambient_telemetry_registry,
    disable_ambient_telemetry,
    enable_ambient_telemetry,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_default_registry,
    set_default_registry,
)
from repro.observability.reqtrace import (
    STAGES,
    RequestTrace,
    TracingPolicy,
    new_trace_id,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_default_registry",
    "set_default_registry",
    "Telemetry",
    "enable_ambient_telemetry",
    "disable_ambient_telemetry",
    "ambient_telemetry_registry",
    "prometheus_text",
    "json_snapshot",
    "write_snapshot",
    "render_dashboard",
    "RequestTrace",
    "TracingPolicy",
    "STAGES",
    "new_trace_id",
    "FlightRecorder",
    "read_flight_log",
    "iter_flight_records",
    "aggregate_stages",
    "format_record_line",
    "format_waterfall",
]
