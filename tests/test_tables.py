"""Unit tests for the text and markdown tables, and the benches' banner."""

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.tables import format_table, markdown_table

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.500" in text
        assert "bb" in text

    def test_title(self):
        text = format_table(["x"], [["1"]], title="Table 9")
        assert text.splitlines()[0] == "Table 9"

    def test_row_width_validated(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestMarkdownTable:
    def test_layout_and_row_width(self):
        assert markdown_table(["a", "b"], [["x", 1.5]]).splitlines() == [
            "| a | b |", "|---|---|", "| x | 1.500 |"]
        with pytest.raises(ConfigurationError):
            markdown_table(["a", "b"], [["only-one"]])


class TestSmallHelpers:
    def test_banner_contains_title(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        from _bench_utils import banner

        assert "Fig. 10" in banner("Fig. 10")
