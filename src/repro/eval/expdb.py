"""Sqlite experiment database for benchmark results.

The benches historically dropped loose ``BENCH_*.json`` files at the repo
root — fine for a single CI artifact, useless for asking "how did this
number move over the last ten runs?".  This module gives every bench run
a durable row instead:

* ``runs`` — one row per bench invocation: bench name, creation time,
  quick/full flag, host facts, and the full report document as JSON (the
  exported ``BENCH_*.json`` view stays byte-compatible);
* ``configs`` — the run's scalar parameters, one ``(key, value)`` row
  each, queryable across runs;
* ``metrics`` — every numeric leaf of the report, flattened to a dotted
  ``name`` (e.g. ``serving.thread.w4.throughput_rps``), one row per
  value.

``python -m repro report --expdb experiments.sqlite`` regenerates the
REPORT.md serving tables from the latest run per bench, and the CI
workflow uploads the database as an artifact next to the JSON views.
Everything here is stdlib ``sqlite3``; no new dependency.
"""

from __future__ import annotations

import json
import os
import platform
import sqlite3
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["ExperimentDB", "default_db_path", "flatten_metrics"]

#: Env var overriding where benches persist their runs.
EXPDB_ENV = "RUMBA_EXPDB"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    bench      TEXT NOT NULL,
    created_at TEXT NOT NULL,
    quick      INTEGER NOT NULL DEFAULT 0,
    host       TEXT,
    report     TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS configs (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    key    TEXT NOT NULL,
    value  TEXT,
    PRIMARY KEY (run_id, key)
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    name   TEXT NOT NULL,
    label  TEXT NOT NULL DEFAULT '',
    value  REAL
);
CREATE INDEX IF NOT EXISTS idx_runs_bench ON runs(bench, id);
CREATE INDEX IF NOT EXISTS idx_metrics_run ON metrics(run_id, name);
"""


def default_db_path() -> str:
    """Where benches persist runs: ``$RUMBA_EXPDB`` or the CWD default."""
    return os.environ.get(EXPDB_ENV, "") or "experiments.sqlite"


def flatten_metrics(
    document: object, prefix: str = ""
) -> Iterator[Tuple[str, float]]:
    """Every numeric leaf of a nested report as ``(dotted.name, value)``.

    Lists index into the path (``workers.0.threshold``); booleans are
    excluded (they are flags, not measurements), and non-finite floats
    are kept — a NaN regression is still a row worth noticing.
    """
    if isinstance(document, bool):
        return
    if isinstance(document, (int, float)):
        yield prefix or "value", float(document)
        return
    if isinstance(document, dict):
        for key, value in document.items():
            dotted = f"{prefix}.{key}" if prefix else str(key)
            yield from flatten_metrics(value, dotted)
        return
    if isinstance(document, (list, tuple)):
        for index, value in enumerate(document):
            dotted = f"{prefix}.{index}" if prefix else str(index)
            yield from flatten_metrics(value, dotted)


def _host_facts() -> Dict[str, object]:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


class ExperimentDB:
    """One sqlite experiment database (``runs``/``configs``/``metrics``).

    Usable as a context manager; the schema is created on open, so a
    fresh path is immediately writable.  A single connection serializes
    writers — bench runs are sequential, so that is all we need.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = str(path) if path else default_db_path()
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # ------------------------------------------------------------------ #
    # Write side                                                          #
    # ------------------------------------------------------------------ #
    def record_run(
        self,
        bench: str,
        report: Dict[str, object],
        quick: bool = False,
        configs: Optional[Dict[str, object]] = None,
        created_at: Optional[str] = None,
    ) -> int:
        """Persist one bench run; returns its ``runs.id``.

        ``report`` is stored verbatim as JSON and additionally exploded
        into ``metrics`` rows (numeric leaves) and ``configs`` rows
        (caller-supplied parameters plus the report's top-level scalars).
        """
        if not bench:
            raise ConfigurationError("a run needs a bench name")
        if created_at is None:
            created_at = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            )
        cursor = self._conn.execute(
            "INSERT INTO runs (bench, created_at, quick, host, report) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                bench,
                created_at,
                int(bool(quick)),
                json.dumps(_host_facts(), sort_keys=True),
                json.dumps(report, sort_keys=True, default=str),
            ),
        )
        run_id = int(cursor.lastrowid)
        merged: Dict[str, object] = {}
        for key, value in report.items():
            if isinstance(value, (str, int, float, bool, type(None))):
                merged[str(key)] = value
        if configs:
            merged.update({str(k): v for k, v in configs.items()})
        self._conn.executemany(
            "INSERT OR REPLACE INTO configs (run_id, key, value) "
            "VALUES (?, ?, ?)",
            [
                (run_id, key, json.dumps(value, default=str))
                for key, value in sorted(merged.items())
            ],
        )
        self._conn.executemany(
            "INSERT INTO metrics (run_id, name, label, value) "
            "VALUES (?, ?, '', ?)",
            [
                (run_id, name, value)
                for name, value in flatten_metrics(report)
            ],
        )
        self._conn.commit()
        return run_id

    # ------------------------------------------------------------------ #
    # Read side                                                           #
    # ------------------------------------------------------------------ #
    def benches(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT DISTINCT bench FROM runs ORDER BY bench"
        ).fetchall()
        return [row[0] for row in rows]

    def runs(self, bench: Optional[str] = None) -> List[Dict[str, object]]:
        """Run summaries (no report payload), newest first."""
        query = (
            "SELECT id, bench, created_at, quick FROM runs "
            + ("WHERE bench = ? " if bench else "")
            + "ORDER BY id DESC"
        )
        rows = self._conn.execute(
            query, (bench,) if bench else ()
        ).fetchall()
        return [
            {"id": r[0], "bench": r[1], "created_at": r[2],
             "quick": bool(r[3])}
            for r in rows
        ]

    def latest_report(
        self, bench: str
    ) -> Optional[Tuple[int, Dict[str, object]]]:
        """``(run_id, report)`` of the newest run of ``bench``, or None."""
        row = self._conn.execute(
            "SELECT id, report FROM runs WHERE bench = ? "
            "ORDER BY id DESC LIMIT 1",
            (bench,),
        ).fetchone()
        if row is None:
            return None
        return int(row[0]), json.loads(row[1])

    def metrics(
        self, run_id: int, like: Optional[str] = None
    ) -> Dict[str, float]:
        query = "SELECT name, value FROM metrics WHERE run_id = ?"
        params: Tuple[object, ...] = (run_id,)
        if like:
            query += " AND name LIKE ?"
            params = (run_id, like)
        return {
            name: value
            for name, value in self._conn.execute(query, params).fetchall()
        }

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ExperimentDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
