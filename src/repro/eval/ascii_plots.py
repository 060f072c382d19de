"""Terminal plotting: compact renderings for the live dashboard.

Horizontal bar charts for per-category values and multi-series line
charts for sweeps and histories, so a figure's shape can be read
directly off a terminal (``python -m repro monitor`` draws with them).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["bar_chart", "line_chart", "sparkline"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """A one-line unicode sparkline of a series."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ConfigurationError("sparkline needs values")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("sparkline values must be finite")
    lo, hi = arr.min(), arr.max()
    span = hi - lo
    if span == 0:
        return _SPARK_LEVELS[0] * arr.size
    ticks = ((arr - lo) / span * (len(_SPARK_LEVELS) - 1)).round().astype(int)
    return "".join(_SPARK_LEVELS[t] for t in ticks)


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
    title: Optional[str] = None,
) -> str:
    """Horizontal bar chart with value annotations."""
    values = [float(v) for v in values]
    if len(labels) != len(values):
        raise ConfigurationError("labels and values must align")
    if not values:
        raise ConfigurationError("bar chart needs data")
    if any(v < 0 or not np.isfinite(v) for v in values):
        raise ConfigurationError("bar values must be finite and >= 0")
    top = max(values) or 1.0
    label_width = max(len(str(l)) for l in labels)
    lines: List[str] = [title] if title else []
    for label, value in zip(labels, values):
        bar = "█" * max(int(round(value / top * width)), 0)
        lines.append(
            f"{str(label).ljust(label_width)}  {bar} {value:.2f}{unit}"
        )
    return "\n".join(lines)


def line_chart(
    x_values: Sequence[float],
    series: Dict[str, Sequence[float]],
    height: int = 12,
    width: int = 60,
    title: Optional[str] = None,
) -> str:
    """Multi-series character line chart (one glyph per series).

    Values are binned onto a ``height x width`` grid; each series draws
    with its own marker, listed in the legend below the plot.
    """
    if height < 2 or width < 2:
        raise ConfigurationError("chart must be at least 2x2")
    if not series:
        raise ConfigurationError("line chart needs at least one series")
    xs = np.asarray(list(x_values), dtype=float)
    markers = "o+x*#@%&"
    all_values = np.concatenate(
        [np.asarray(list(v), dtype=float) for v in series.values()]
    )
    if not np.all(np.isfinite(all_values)) or not np.all(np.isfinite(xs)):
        raise ConfigurationError("chart values must be finite")
    y_lo, y_hi = float(all_values.min()), float(all_values.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for marker, (name, values) in zip(markers, series.items()):
        ys = np.asarray(list(values), dtype=float)
        if ys.shape != xs.shape:
            raise ConfigurationError(f"series {name!r} length mismatch")
        cols = ((xs - x_lo) / (x_hi - x_lo) * (width - 1)).round().astype(int)
        rows = (
            (1.0 - (ys - y_lo) / (y_hi - y_lo)) * (height - 1)
        ).round().astype(int)
        for row, col in zip(rows, cols):
            grid[row][col] = marker

    lines: List[str] = [title] if title else []
    for i, row in enumerate(grid):
        y_label = y_hi - (y_hi - y_lo) * i / (height - 1)
        lines.append(f"{y_label:10.3f} |{''.join(row)}")
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(f"{'':11}{x_lo:<10.3f}{'':{max(width - 20, 0)}}{x_hi:>10.3f}")
    legend = "   ".join(
        f"{marker}={name}" for marker, name in zip(markers, series)
    )
    lines.append(f"{'':11}{legend}")
    return "\n".join(lines)
