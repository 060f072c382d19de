"""Fixed-width text tables for the CLI and every bench, and markdown
tables for ``repro report``.

Kept apart from :mod:`repro.eval` so that a command printing a table
(``serve``, ``client``) does not load the evaluation stack.
"""

from __future__ import annotations

import numbers
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError

__all__ = ["format_table", "markdown_table"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width text table."""
    if not headers:
        raise ConfigurationError("table needs headers")
    str_rows: List[List[str]] = [[_cell(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in str_rows))
        if str_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """The same rows as a markdown table."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError("report row width mismatch")
        lines.append("| " + " | ".join(_cell(c) for c in row) + " |")
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        return f"{value:.3f}"  # floats, numpy's included
    return str(value)
