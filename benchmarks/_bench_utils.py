"""Shared helpers for the per-figure benches.

Each ``bench_*.py`` regenerates one table or figure of the paper: it runs
the corresponding experiment from :mod:`repro.eval.experiments` and prints
the same rows/series the paper plots.  Run the whole harness with::

    pytest benchmarks/ --benchmark-only

or any single figure directly::

    python benchmarks/bench_fig10_error_vs_fixed.py

Telemetry opt-in
----------------
Set ``RUMBA_BENCH_TELEMETRY`` to a directory and every bench dumps a JSON
metrics snapshot (``<bench>.telemetry.json``) of all systems it ran next
to its printed results::

    RUMBA_BENCH_TELEMETRY=/tmp/tel python benchmarks/bench_headline_summary.py

With the variable unset nothing is recorded and the runtime's
instrumentation stays on its no-op path.  Benches that only post-process
offline evaluation material (most figure benches) never build an online
system, so their snapshot is legitimately empty; benches that drive the
online loop (e.g. ``bench_tuner_modes``) record every invocation.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.apps.registry import APPLICATION_NAMES
from repro.observability import (
    MetricsRegistry,
    disable_ambient_telemetry,
    enable_ambient_telemetry,
    write_snapshot,
)

__all__ = [
    "APPLICATION_NAMES",
    "run_once",
    "emit",
    "bench_telemetry",
    "persist_report",
]

_TELEMETRY_ENV = "RUMBA_BENCH_TELEMETRY"


@contextmanager
def bench_telemetry(name: str) -> Iterator[Optional[MetricsRegistry]]:
    """Arm ambient telemetry for one bench when the env opt-in is set.

    Every :class:`~repro.core.RumbaSystem` built inside the block records
    into a fresh registry (labelled per app/scheme); on exit the snapshot
    is written to ``$RUMBA_BENCH_TELEMETRY/<name>.telemetry.json``.
    Yields the registry, or None when the opt-in is off.
    """
    directory = os.environ.get(_TELEMETRY_ENV, "")
    if not directory:
        yield None
        return
    registry = MetricsRegistry()
    enable_ambient_telemetry(registry)
    try:
        yield registry
    finally:
        disable_ambient_telemetry()
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{name}.telemetry.json")
        write_snapshot(path, registry)
        print(f"[telemetry] wrote {path}")


def run_once(benchmark, fn: Callable, *args, **kwargs):
    """Benchmark ``fn`` with a single round (experiments are deterministic
    and dominated by one-time training, which the eval layer caches)."""
    with bench_telemetry(getattr(fn, "__name__", "bench")):
        if benchmark is None:
            return fn(*args, **kwargs)
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                                  iterations=1)


def emit(text: str) -> None:
    """Print a result block (pytest captures it; ``-s`` or direct runs show it)."""
    print()
    print(text)


def persist_report(
    report: dict, json_path: str, bench: str, quick: bool = False
) -> None:
    """Persist one bench report: JSON view + experiment-DB run.

    The JSON file keeps the ``BENCH_*.json`` artifact contract (CI
    uploads it); the authoritative copy goes
    into the sqlite experiment DB (``$RUMBA_EXPDB`` or
    ``experiments.sqlite``), where ``python -m repro report --expdb``
    and cross-run queries read it back.  A DB failure must not fail a
    bench that already produced its numbers, so it downgrades to a
    warning.
    """
    with open(json_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    emit(f"wrote {json_path}")
    from repro.eval.expdb import ExperimentDB, default_db_path

    db_path = default_db_path()
    try:
        with ExperimentDB(db_path) as db:
            run_id = db.record_run(bench, report, quick=quick)
    except Exception as exc:  # pragma: no cover - disk/sqlite trouble
        emit(f"[expdb] not recorded in {db_path}: {exc}")
    else:
        emit(f"[expdb] recorded run {run_id} of {bench} in {db_path}")
