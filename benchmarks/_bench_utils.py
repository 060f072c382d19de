"""Shared helpers for the benches that drive what the fidelity table cannot.

The paper's figures, tables and ablations are rows of
:mod:`repro.eval.fidelity`, rendered by ``python -m repro report``.  What
stays here: the Pareto energy/quality sweep (``bench_pareto_energy_quality``,
which CI runs), the serving chaos soak (``bench_chaos``) and the cost-model
validation against the simulators (``bench_model_validation``).  Run one
directly::

    python benchmarks/bench_pareto_energy_quality.py --ensemble-only
"""

from __future__ import annotations

import json
from typing import Callable

from repro.apps.registry import APPLICATION_NAMES

__all__ = ["APPLICATION_NAMES", "run_once", "emit", "persist_report"]


def run_once(benchmark, fn: Callable, *args, **kwargs):
    """Benchmark ``fn`` with a single round (experiments are deterministic
    and dominated by one-time training, which the eval layer caches)."""
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
