"""Tests for ``repro report``, the paper-vs-measured document of any subset."""

import pytest

from repro.errors import ConfigurationError
from repro.eval.fidelity import collect, render


@pytest.fixture(scope="module")
def fft_report():
    return render([collect(["fft"], seed=0)])


class TestGenerateReport:
    def test_contains_all_sections(self, fft_report):
        for heading in (
            "### Elements re-executed per application",
            "### False positives per application",
            "### Energy savings and speedup per application",
            "### Checker time per application",
            "## Fig. 5: Gaussian, EVP vs EEP",
            "## Table 2:",
        ):
            assert heading in fft_report
        # fft's rows and the app-independent ones render; a suite mean
        # or another app's ablation is left out, not shown over fft alone.
        for present in ("`fig16.max_rise`", "`fig18.fix_fraction`",
                        "`fig05.eep_advantage`", "`fig10.ideal_slack`"):
            assert present in fft_report
        for absent in ("`headline.error_reduction`", "`fig12.mean.Random`",
                       "`ablation.tree_depth.7.fixed`", "kmeans",
                       "## Headline", "## Abstract",
                       "mean unchecked accelerator error", "error reduction"):
            assert absent not in fft_report

    def test_markdown_tables_well_formed(self, fft_report):
        lines = fft_report.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("|") and set(line) <= {"|", "-", " "}:
                # Separator row: the header above must have the same width.
                header_cols = lines[i - 1].count("|")
                assert line.count("|") == header_cols

    def test_benchmark_rows_present(self, fft_report):
        assert "| fft |" in fft_report

    def test_scheme_columns_present(self, fft_report):
        assert "treeErrors" in fft_report and "linearErrors" in fft_report

    def test_subset_and_full_names(self):
        with pytest.raises(ConfigurationError):
            collect([])

    def test_cli_report_command(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "report.md"
        assert main(["report", "--apps", "fft", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# Rumba reproduction: paper vs. measured")
        captured = capsys.readouterr().out
        assert "wrote" in captured
