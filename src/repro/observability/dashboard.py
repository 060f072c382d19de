"""Live ASCII dashboard for a telemetry-attached system.

Renders one terminal frame from a :class:`Telemetry` instance: headline
stats (fire rate, recovered fraction, threshold, CPU keep-up), sparklines
of the recent per-invocation history, the threshold trajectory as a line
chart, and a bar chart of where wall time goes by phase.  The charts reuse
:mod:`repro.eval.ascii_plots`, so the monitor looks like the rest of the
bench output.

``python -m repro monitor`` redraws this frame after every invocation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.eval.ascii_plots import bar_chart, line_chart, sparkline
from repro.observability.instrument import PHASES, Telemetry
from repro.tables import format_table

__all__ = ["render_dashboard", "clear_screen_prefix"]

#: ANSI: move home + clear; prefix a frame with this for live redraws.
CLEAR = "\x1b[H\x1b[2J"


def clear_screen_prefix(live: bool) -> str:
    return CLEAR if live else ""


def _spark(values: Sequence[float], width: int = 48) -> str:
    values = [float(v) for v in values if v == v]  # drop NaNs
    if not values:
        return "(no data)"
    return sparkline(values[-width:])


def _fmt_pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 100:.2f}%"


def render_dashboard(telemetry: Telemetry, width: int = 60) -> str:
    """One frame of the quality dashboard as a multi-line string."""
    history = telemetry.history
    labels = telemetry.labels
    lines: List[str] = []
    n_inv = telemetry.registry.get("rumba_invocations_total")
    count = int(n_inv.labels(**labels).value) if n_inv is not None else 0
    title = (
        f"rumba monitor · app={telemetry.app or '?'} "
        f"scheme={telemetry.scheme or '?'} · {count} invocations"
    )
    lines.append(title)
    lines.append("=" * max(len(title), 40))

    def gauge(name: str) -> Optional[float]:
        metric = telemetry.registry.get(name)
        if metric is None:
            return None
        return metric.labels(**labels).value

    threshold = gauge("rumba_threshold")
    rows = [
        ["fire rate", _fmt_pct(gauge("rumba_fire_rate")),
         _spark(history["fire_rate"])],
        ["recovered", _fmt_pct(gauge("rumba_recovered_fraction")),
         _spark(history["recovered_fraction"])],
        ["cpu util", _fmt_pct(gauge("rumba_cpu_utilization")),
         _spark(history["cpu_utilization"])],
        ["threshold",
         "-" if threshold is None else f"{threshold:.4g}",
         _spark(history["threshold"])],
    ]
    if history["measured_error"]:
        rows.append(["meas. error", _fmt_pct(gauge("rumba_measured_error")),
                     _spark(history["measured_error"])])
    kept_up = gauge("rumba_cpu_kept_up")
    status = "-" if kept_up is None else (
        "cpu kept up" if kept_up else "CPU BEHIND")
    rows.append(["status", status, ""])
    lines.append(format_table(["signal", "now", "recent"], rows))

    trajectory = list(history["threshold"])
    if len(trajectory) >= 2:
        xs = list(range(len(trajectory)))
        lines.append("")
        lines.append(line_chart(
            xs, {"threshold": trajectory}, height=8, width=width,
            title="threshold trajectory (invocation index)",
        ))

    phase_totals = []
    phase_seconds = telemetry.registry.get("rumba_phase_seconds_total")
    if phase_seconds is not None:
        for phase in PHASES:
            value = phase_seconds.labels(phase=phase, **labels).value
            phase_totals.append(value * 1000.0)
    if any(phase_totals):
        lines.append("")
        lines.append(bar_chart(
            list(PHASES), phase_totals, width=max(width - 20, 10), unit="ms",
            title="cumulative wall time by phase",
        ))
    return "\n".join(lines)
