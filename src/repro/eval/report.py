"""Automated experiment report generation.

``generate_report`` runs the complete evaluation (all figures' data over
the requested benchmarks) and renders one markdown document — the
regenerable counterpart of the hand-annotated ``EXPERIMENTS.md``.  The CLI
exposes it as ``python -m repro report``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.apps.registry import APPLICATION_NAMES
from repro.errors import ConfigurationError
from repro.eval.experiments import DEFAULT_TARGET_ERROR
from repro.eval.reporting import _md_table
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

    Every section reads one :func:`~repro.eval.fidelity.collect` pass,
    which evaluates each benchmark once (training is cached per process:
    the full suite takes ~10 s the first time).  With ``expdb_path`` the
    serving-benchmark tables are appended from the latest runs in that
    experiment database.
    """
    # Not a module-level import: ``python -m repro.eval.fidelity`` would
    # find the module already imported by this package and warn.
    from repro.eval.fidelity import collect, render

    if not benchmarks:
        raise ConfigurationError("need at least one benchmark")
    data = collect(benchmarks, seed=seed, target_error=target_error)
    head = data["headline"]

    def per_app(headers: List[str], cells) -> str:
        """One row per benchmark: its name, then ``cells(name)``."""
        return _md_table(["benchmark"] + headers,
                         [[name] + cells(name) for name in benchmarks])

    def percent(fig: str):
        return lambda name: [f"{data[fig]['per_app'][name][s] * 100:.1f}"
                             for s in SCHEME_NAMES]

    sections: List[str] = [
        "# Rumba reproduction — generated experiment report",
        "",
        f"Benchmarks: {', '.join(benchmarks)}; quality target: "
        f"{(1 - target_error) * 100:.0f}% (error budget "
        f"{target_error * 100:.0f}%); seed {seed}.",
        "",
        "## Headline",
        "",
        _md_table(
            ["quantity", "value"],
            [
                ["mean unchecked accelerator error",
                 f"{head['mean_unchecked_error'] * 100:.1f}%"],
                ["mean Rumba (treeErrors) error",
                 f"{head['mean_rumba_error'] * 100:.1f}%"],
                ["error reduction", f"{head['error_reduction']:.2f}x"],
                ["unchecked NPU energy savings",
                 f"{head['npu_energy_savings']:.2f}x"],
                ["Rumba energy savings",
                 f"{head['rumba_energy_savings']:.2f}x"],
                ["NPU / Rumba speedup",
                 f"{head['npu_speedup']:.2f}x / {head['rumba_speedup']:.2f}x"],
            ],
        ),
        "",
        f"## Elements re-executed (%) at {(1 - target_error) * 100:.0f}% "
        f"target quality (Fig. 12)",
        "",
        per_app(list(SCHEME_NAMES), percent("fig12")),
        "",
        "## False positives (% of all elements) (Fig. 11)",
        "",
        per_app(list(SCHEME_NAMES), percent("fig11")),
        "",
        "## Energy savings and speedup (Figs. 14-15)",
        "",
        per_app(["NPU energy x", "Rumba energy x", "NPU speedup",
                 "Rumba speedup"],
                lambda name: [f"{head['per_app'][name][k]:.2f}" for k in (
                    "npu_energy_savings", "rumba_energy_savings",
                    "npu_speedup", "rumba_speedup")]),
        "",
        "## Checker time relative to one NPU invocation (Fig. 17)",
        "",
        per_app(["linearErrors", "treeErrors"],
                lambda name: [f"{data['fig17']['per_app'][name][s]:.3f}"
                              for s in ("linearErrors", "treeErrors")]),
        "",
        "## EVP vs EEP (Sec. 3.2)",
        "",
        f"EEP tracks true errors {data['fig05']['eep_advantage']:.1f}x closer "
        f"than EVP (mean distances {data['fig05']['eep_distance']:.4f} vs "
        f"{data['fig05']['evp_distance']:.4f}).",
        "",
        *render(data),
    ]
    if expdb_path:
        sections += _expdb_sections(expdb_path)
        sections.append("")
    return "\n".join(sections)
