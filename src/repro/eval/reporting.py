"""Plain-text and markdown table formatting.

The benches under ``benchmarks/`` print text tables and ``repro report``
renders markdown ones; these helpers keep that output consistent.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.tables import _cell, format_table

__all__ = ["format_table", "banner"]


def banner(title: str, width: int = 78) -> str:
    """A section banner for bench output."""
    bar = "=" * width
    return f"{bar}\n{title}\n{bar}"


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

