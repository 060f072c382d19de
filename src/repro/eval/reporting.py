"""Plain-text and markdown table/series formatting.

The benchmark harness prints the same rows/series the paper's figures plot
and ``repro report`` renders them as markdown; these helpers keep that
output consistent across all bench files and the report.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ConfigurationError
from repro.tables import _cell, format_table

__all__ = ["format_table", "format_series", "format_percent", "banner"]


def banner(title: str, width: int = 78) -> str:
    """A section banner for bench output."""
    bar = "=" * width
    return f"{bar}\n{title}\n{bar}"


def format_percent(value: float, digits: int = 1) -> str:
    """Render a fraction as a percentage string."""
    return f"{value * 100:.{digits}f}%"


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """The same rows as a markdown table (``eval/report.py``)."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError("report row width mismatch")
        lines.append("| " + " | ".join(_cell(c) for c in row) + " |")
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[float],
    series: Dict[str, Sequence[float]],
    title: Optional[str] = None,
    fmt: str = "{:.3f}",
) -> str:
    """A figure's data as a table: one x column plus one column per series."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        row = [fmt.format(float(x))]
        row.extend(fmt.format(float(series[name][i])) for name in series)
        rows.append(row)
    return format_table(headers, rows, title=title)
