"""Observability for the online quality-management loop.

Rumba's value proposition is *online*: the Fig. 4 detect → recover → tune
loop runs continuously at deployment, and the quantities the paper's
evaluation is built on (fire rate, recovered fraction, CPU recovery
pressure, threshold trajectory) are exactly the quantities an operator
must watch in production.  This package makes them first-class:

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

from repro._lazy import lazy_exports

_EXPORTS = {
    "Counter": "metrics", "Gauge": "metrics", "Histogram": "metrics",
    "MetricsRegistry": "metrics", "get_default_registry": "metrics",
    "Telemetry": "instrument",
    "prometheus_text": "export", "json_snapshot": "export",
    "write_snapshot": "export",
    "render_dashboard": "dashboard",
    "RequestTrace": "reqtrace", "TracingPolicy": "reqtrace",
    "STAGES": "reqtrace", "new_trace_id": "reqtrace",
    "FlightRecorder": "flightlog", "read_flight_log": "flightlog",
    "iter_flight_records": "flightlog", "aggregate_stages": "flightlog",
    "format_record_line": "flightlog", "format_waterfall": "flightlog",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
