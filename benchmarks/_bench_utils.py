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
import os
import platform
from typing import Callable

from repro.apps.registry import APPLICATION_NAMES

__all__ = ["APPLICATION_NAMES", "run_once", "emit", "banner", "persist_report"]


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


def banner(title: str, width: int = 78) -> str:
    """A section banner for bench output."""
    bar = "=" * width
    return f"{bar}\n{title}\n{bar}"


def persist_report(report: dict, json_path: str) -> None:
    """Write one bench report (a ``BENCH_*.json`` file, which CI uploads)
    with a ``host`` block naming the machine that produced it."""
    host = {"platform": platform.platform(), "python": platform.python_version(),
            "cpu_count": os.cpu_count()}
    with open(json_path, "w") as handle:
        json.dump({**report, "host": host}, handle, indent=2)
        handle.write("\n")
    emit(f"wrote {json_path}")
