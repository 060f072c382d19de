"""Automated experiment report generation.

``generate_report`` runs the complete evaluation (all figures' data over
the requested benchmarks) and renders one markdown document — the
regenerable counterpart of the hand-annotated ``EXPERIMENTS.md``.  The CLI
exposes it as ``python -m repro report``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.apps.registry import APPLICATION_NAMES
from repro.errors import ConfigurationError
from repro.eval.experiments import (
    DEFAULT_TARGET_ERROR,
    energy_speedup_table,
    gaussian_case_study,
    geomean,
    headline_summary,
    prediction_time_table,
    quality_target_analysis,
)
from repro.eval.reporting import _md_table
from repro.eval.schemes import evaluate_benchmark
from repro.predictors.training import SCHEME_NAMES

__all__ = ["generate_report"]


def _expdb_sections(expdb_path: str) -> List[str]:
    """Serving-benchmark tables regenerated from the experiment DB.

    Renders the latest run of every bench recorded in the sqlite
    database (``benchmarks/*.py`` write into it via ``persist_report``).
    Each bench's ``results`` rows share one flat scalar schema, so the
    table is derived generically from the union of their keys.
    """
    from repro.eval.expdb import ExperimentDB

    sections: List[str] = [
        "",
        "## Serving benchmarks (experiment DB)",
        "",
        f"Source: `{expdb_path}` — latest run per bench; regenerate "
        "with `python -m repro report --expdb`.",
    ]
    with ExperimentDB(expdb_path) as db:
        benches = db.benches()
        if not benches:
            sections.append("")
            sections.append("_No runs recorded yet — run "
                            "`benchmarks/bench_pareto_energy_quality.py "
                            "--ensemble-only`._")
            return sections
        for bench in benches:
            latest = db.latest_report(bench)
            if latest is None:  # pragma: no cover - benches() said it exists
                continue
            run_id, report = latest
            host = report.get("host") or {}
            sections += [
                "",
                f"### {bench}",
                "",
                f"Run {run_id}, recorded "
                f"{next(iter(r['created_at'] for r in db.runs(bench)), '?')}"
                f"{' (quick)' if report.get('quick') else ''}; host "
                f"cpu_count={host.get('cpu_count', '?')}.",
            ]
            results = report.get("results")
            if not isinstance(results, list) or not results:
                continue
            headers: List[str] = []
            for row in results:
                if isinstance(row, dict):
                    for key, value in row.items():
                        if key not in headers and isinstance(
                            value, (str, int, float, bool)
                        ):
                            headers.append(key)
            if not headers:
                continue
            table_rows = [
                [row.get(h, "") for h in headers]
                for row in results if isinstance(row, dict)
            ]
            sections += ["", _md_table(headers, table_rows)]
    return sections


def generate_report(
    benchmarks: Sequence[str] = APPLICATION_NAMES,
    target_error: float = DEFAULT_TARGET_ERROR,
    seed: int = 0,
    expdb_path: Optional[str] = None,
) -> str:
    """Run the full evaluation and render a markdown report.

    Training results are cached per process, so the first call trains
    every requested benchmark (~30 s for the full suite) and later calls
    are fast.  With ``expdb_path`` the serving-benchmark tables are
    appended from the latest runs in that experiment database.
    """
    if not benchmarks:
        raise ConfigurationError("need at least one benchmark")
    sections: List[str] = [
        "# Rumba reproduction — generated experiment report",
        "",
        f"Benchmarks: {', '.join(benchmarks)}; quality target: "
        f"{(1 - target_error) * 100:.0f}% (error budget "
        f"{target_error * 100:.0f}%); seed {seed}.",
    ]

    # ------------------------------------------------------------------ #
    # Headline                                                           #
    # ------------------------------------------------------------------ #
    summary = headline_summary(
        benchmarks=benchmarks, target_error=target_error, seed=seed
    )
    sections += [
        "",
        "## Headline",
        "",
        _md_table(
            ["quantity", "value"],
            [
                ["mean unchecked accelerator error",
                 f"{summary.mean_unchecked_error * 100:.1f}%"],
                ["mean Rumba (treeErrors) error",
                 f"{summary.mean_rumba_error * 100:.1f}%"],
                ["error reduction", f"{summary.error_reduction:.2f}x"],
                ["unchecked NPU energy savings",
                 f"{summary.npu_energy_savings:.2f}x"],
                ["Rumba energy savings",
                 f"{summary.rumba_energy_savings:.2f}x"],
                ["NPU / Rumba speedup",
                 f"{summary.npu_speedup:.2f}x / {summary.rumba_speedup:.2f}x"],
            ],
        ),
    ]

    # ------------------------------------------------------------------ #
    # Per-benchmark quality analysis (Figs. 11-13)                       #
    # ------------------------------------------------------------------ #
    fix_rows = []
    fp_rows = []
    for name in benchmarks:
        evaluation = evaluate_benchmark(name, seed=seed)
        analyses = quality_target_analysis(evaluation, target_error)
        fix_rows.append(
            [name] + [f"{analyses[s].fixed_fraction * 100:.1f}"
                      for s in SCHEME_NAMES]
        )
        fp_rows.append(
            [name] + [f"{analyses[s].false_positive_fraction * 100:.1f}"
                      for s in SCHEME_NAMES]
        )
    sections += [
        "",
        f"## Elements re-executed (%) at {(1 - target_error) * 100:.0f}% "
        f"target quality (Fig. 12)",
        "",
        _md_table(["benchmark"] + list(SCHEME_NAMES), fix_rows),
        "",
        "## False positives (% of all elements) (Fig. 11)",
        "",
        _md_table(["benchmark"] + list(SCHEME_NAMES), fp_rows),
    ]

    # ------------------------------------------------------------------ #
    # Energy and speedup (Figs. 14-15)                                   #
    # ------------------------------------------------------------------ #
    energy_rows = []
    for name in benchmarks:
        evaluation = evaluate_benchmark(name, seed=seed)
        rows = {r.scheme: r for r in
                energy_speedup_table(evaluation, target_error)}
        energy_rows.append([
            name,
            f"{rows['NPU'].energy_savings:.2f}",
            f"{rows['treeErrors'].energy_savings:.2f}",
            f"{rows['NPU'].speedup:.2f}",
            f"{rows['treeErrors'].speedup:.2f}",
        ])
    sections += [
        "",
        "## Energy savings and speedup (Figs. 14-15)",
        "",
        _md_table(
            ["benchmark", "NPU energy x", "Rumba energy x", "NPU speedup",
             "Rumba speedup"],
            energy_rows,
        ),
    ]

    # ------------------------------------------------------------------ #
    # Checker timing (Fig. 17) and the EVP/EEP case study                #
    # ------------------------------------------------------------------ #
    timing_rows = []
    for name in benchmarks:
        evaluation = evaluate_benchmark(name, seed=seed)
        times = prediction_time_table(evaluation)
        timing_rows.append([
            name, f"{times['linearErrors']:.3f}", f"{times['treeErrors']:.3f}"
        ])
    study = gaussian_case_study(seed=seed)
    sections += [
        "",
        "## Checker time relative to one NPU invocation (Fig. 17)",
        "",
        _md_table(["benchmark", "linearErrors", "treeErrors"], timing_rows),
        "",
        "## EVP vs EEP (Sec. 3.2)",
        "",
        f"EEP tracks true errors {study.eep_advantage:.1f}x closer than EVP "
        f"(mean distances {study.eep_distance:.4f} vs "
        f"{study.evp_distance:.4f}).",
        "",
    ]

    if expdb_path:
        sections += _expdb_sections(expdb_path)
        sections.append("")
    return "\n".join(sections)
