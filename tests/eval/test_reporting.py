"""Unit tests for the bench reporting helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.eval.reporting import banner, format_table


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


class TestSmallHelpers:
    def test_banner_contains_title(self):
        assert "Fig. 10" in banner("Fig. 10")
