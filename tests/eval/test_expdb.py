"""Experiment-DB round-trips: recording runs, reading them back, the
metric flattener, and the report section regenerated from the DB."""

import json
import sqlite3

import pytest

from repro.errors import ConfigurationError
from repro.eval.expdb import ExperimentDB, default_db_path, flatten_metrics

REPORT = {
    "bench": "backend_scaling",
    "app": "fft",
    "quick": True,
    "host": {"cpu_count": 8},
    "load": {"n_requests": 32},
    "results": [
        {"backend": "thread", "workers": 1, "requests_per_s": 120.5,
         "p50_ms": 4.0},
        {"backend": "process", "workers": 1, "requests_per_s": 150.25,
         "p50_ms": 3.5},
    ],
}


class TestFlattenMetrics:
    def test_numeric_leaves_with_dotted_paths(self):
        flat = dict(flatten_metrics(REPORT))
        assert flat["host.cpu_count"] == 8.0
        assert flat["load.n_requests"] == 32.0
        assert flat["results.0.requests_per_s"] == 120.5
        assert flat["results.1.p50_ms"] == 3.5

    def test_booleans_and_strings_excluded(self):
        flat = dict(flatten_metrics(REPORT))
        assert "quick" not in flat  # a flag, not a measurement
        assert "bench" not in flat
        assert "app" not in flat

    def test_bare_scalar(self):
        assert list(flatten_metrics(7.5)) == [("value", 7.5)]


class TestExperimentDB:
    def test_record_and_read_back(self, tmp_path):
        path = str(tmp_path / "experiments.sqlite")
        with ExperimentDB(path) as db:
            run_id = db.record_run("backend_scaling", REPORT, quick=True)
            assert db.benches() == ["backend_scaling"]
            runs = db.runs("backend_scaling")
            assert len(runs) == 1 and runs[0]["id"] == run_id
            assert runs[0]["quick"] is True
            latest = db.latest_report("backend_scaling")
            assert latest is not None
            latest_id, report = latest
            assert latest_id == run_id
            assert report == json.loads(json.dumps(REPORT))

    def test_latest_report_is_newest_run(self, tmp_path):
        path = str(tmp_path / "experiments.sqlite")
        with ExperimentDB(path) as db:
            db.record_run("b", {"v": 1}, created_at="2026-01-01T00:00:00Z")
            newer = db.record_run("b", {"v": 2},
                                  created_at="2026-01-02T00:00:00Z")
            run_id, report = db.latest_report("b")
            assert run_id == newer
            assert report == {"v": 2}
        assert ExperimentDB(path).latest_report("nope") is None

    def test_metrics(self, tmp_path):
        path = str(tmp_path / "experiments.sqlite")
        with ExperimentDB(path) as db:
            run_id = db.record_run("backend_scaling", REPORT)
            metrics = db.metrics(run_id)
            assert metrics["results.0.requests_per_s"] == 120.5
            filtered = db.metrics(run_id, like="results.%.p50_ms")
            assert set(filtered) == {"results.0.p50_ms", "results.1.p50_ms"}

    def test_configs_capture_top_level_scalars(self, tmp_path):
        path = str(tmp_path / "experiments.sqlite")
        with ExperimentDB(path) as db:
            run_id = db.record_run(
                "b", REPORT, configs={"extra": "knob"}
            )
        rows = dict(
            sqlite3.connect(path).execute(
                "SELECT key, value FROM configs WHERE run_id = ?", (run_id,)
            ).fetchall()
        )
        assert json.loads(rows["app"]) == "fft"
        assert json.loads(rows["quick"]) is True
        assert json.loads(rows["extra"]) == "knob"
        assert "results" not in rows  # nested documents are not configs

    def test_empty_bench_name_rejected(self, tmp_path):
        with ExperimentDB(str(tmp_path / "db.sqlite")) as db:
            with pytest.raises(ConfigurationError):
                db.record_run("", {})

    def test_default_path_env_override(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RUMBA_EXPDB", raising=False)
        assert default_db_path() == "experiments.sqlite"
        monkeypatch.setenv("RUMBA_EXPDB", str(tmp_path / "other.sqlite"))
        assert default_db_path() == str(tmp_path / "other.sqlite")


class TestReportSection:
    def test_expdb_section_renders_latest_runs(self, tmp_path):
        from repro.eval.report import _expdb_sections

        path = str(tmp_path / "experiments.sqlite")
        with ExperimentDB(path) as db:
            db.record_run("backend_scaling", REPORT, quick=True)
        text = "\n".join(_expdb_sections(path))
        assert "## Serving benchmarks (experiment DB)" in text
        assert "### backend_scaling" in text
        # Stored reports round-trip with sorted keys, so the derived
        # table headers come back alphabetized.
        assert "| backend | p50_ms | requests_per_s | workers |" in text
        assert "120.500" in text  # _md_table's float formatting

    def test_expdb_section_with_empty_db(self, tmp_path):
        from repro.eval.report import _expdb_sections

        path = str(tmp_path / "empty.sqlite")
        text = "\n".join(_expdb_sections(path))
        assert "No runs recorded yet" in text
