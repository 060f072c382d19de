"""Extension — the energy/quality Pareto frontier across the whole suite.

Fig. 16 sweeps target error for one benchmark; this bench generalizes it:
for every benchmark, sweep the quality target under treeErrors and report
the energy savings Rumba achieves at each target, bracketed by the two
fixed points (unchecked NPU quality / unchecked NPU energy, exact CPU
quality / 1x energy).  The online tuner lets a user dial any point on
this frontier at runtime (Challenge IV).

The ensemble sweep below repeats the exercise with the multi-approximator
router in the loop: at every TOQ target the router's margin is swept and
the best routed operating point is compared against the single-MLP
deployment (the ensemble's rank-0 reference).  The routed frontier must
dominate — the margin→0 point *is* the single-MLP point, so the ensemble
can only add savings, never lose quality headroom.  Results persist to
``BENCH_ensemble.json`` (CI uploads it as an artifact).
"""

import os

import numpy as np
from _bench_utils import APPLICATION_NAMES, banner, emit, persist_report, run_once

from repro.core.costs import CostModel
from repro.core.offline import prepare_ensemble
from repro.eval import evaluate_benchmark
from repro.hardware.checker_hw import CheckerModel
from repro.metrics.analysis import fixes_required_for_quality
from repro.tables import format_table

TARGETS = (0.20, 0.15, 0.10, 0.05, 0.02)

# Ensemble sweep scope: the cheap-to-train benchmarks keep the bench fast
# while covering both a 1-input and a 2-input kernel.
ENSEMBLE_APPS = ("fft", "inversek2j")
ENSEMBLE_MARGINS = (0.1, 0.2, 0.3, 0.5, 1.0)
ENSEMBLE_OUTPUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_ensemble.json",
)


def run_sweep():
    rows = []
    for name in APPLICATION_NAMES:
        evaluation = evaluate_benchmark(name)
        cost_model = CostModel(evaluation.app)
        checker = CheckerModel(
            "tree", n_inputs=evaluation.backend.topology.n_inputs
        )
        row = [name, evaluation.unchecked_error * 100]
        for target in TARGETS:
            n_fixed, _ = fixes_required_for_quality(
                evaluation.scores["treeErrors"], evaluation.errors, target
            )
            costs = cost_model.whole_app_costs(
                evaluation.backend.topology,
                checker,
                n_fixed / evaluation.n_elements,
            )
            row.append(costs.energy_savings)
        rows.append(row)
    return rows


def test_pareto_energy_quality(benchmark):
    rows = run_once(benchmark, run_sweep)
    headers = ["Benchmark", "unchecked err %"] + [
        f"savings @ {t * 100:.0f}% err" for t in TARGETS
    ]
    emit(banner("Energy/quality Pareto frontier (treeErrors, all targets)"))
    emit(format_table(headers, rows))
    for row in rows:
        savings = row[2:]
        # Loosening the target never costs energy (monotone frontier)...
        assert all(a >= b - 1e-9 for a, b in zip(savings, savings[1:])), row[0]
        # ...and even the strictest target keeps some benefit on the
        # benchmarks with a real kernel (kmeans is the known outlier).
        if row[0] != "kmeans":
            assert savings[0] > 1.0, row[0]


def _routed_savings(ensemble, cost_model, checker, scores, member_errors,
                    choices, target):
    """Energy savings of one routed operating point at one TOQ target.

    Quality is held at the target the same way the runtime does: rank
    rows by the (static) treeErrors scheme scores and fix just enough of
    them that the routed per-row errors meet the target; the remaining
    fix fraction prices the recovery work in the blended cost model.
    """
    errors = member_errors[choices, np.arange(choices.size)]
    n_fixed, _ = fixes_required_for_quality(scores, errors, target)
    costs = ensemble.blended_app_costs(
        cost_model, checker, choices, n_fixed / max(choices.size, 1)
    )
    return costs.energy_savings


def run_ensemble_sweep():
    rows = []
    points = []
    for name in ENSEMBLE_APPS:
        evaluation = evaluate_benchmark(name)
        app = evaluation.app
        ensemble = prepare_ensemble(app, seed=0).clone_shard()
        cost_model = CostModel(app)
        checker = CheckerModel(
            "tree", n_inputs=evaluation.backend.topology.n_inputs
        )
        scores = evaluation.scores["treeErrors"]
        inputs = evaluation.test_inputs
        features = ensemble.router_features(inputs)
        # Per-member outputs are margin-independent: compute each member's
        # per-row errors once and gather per operating point.
        member_errors = np.stack([
            np.asarray(
                app.element_errors(member.backend(inputs), evaluation.exact),
                dtype=float,
            ).ravel()
            for member in ensemble.members
        ])
        n = inputs.shape[0]
        single_mlp = np.zeros(n, dtype=np.int8)  # everything on rank 0
        for target in TARGETS:
            base = _routed_savings(
                ensemble, cost_model, checker, scores, member_errors,
                single_mlp, target,
            )
            best, best_margin, best_mix = base, 0.0, {0: n}
            for margin in ENSEMBLE_MARGINS:
                ensemble.router.margin = margin
                choices = ensemble.router.route(features, threshold=target)
                savings = _routed_savings(
                    ensemble, cost_model, checker, scores, member_errors,
                    choices, target,
                )
                if savings > best + 1e-12:
                    counts = np.bincount(
                        choices, minlength=len(ensemble.members)
                    )
                    best, best_margin = savings, margin
                    best_mix = {
                        i: int(c) for i, c in enumerate(counts) if c
                    }
            rows.append([name, target * 100, base, best, best / base,
                         best_margin])
            points.append({
                "app": name,
                "target_error": target,
                "single_mlp_savings": base,
                "ensemble_savings": best,
                "margin": best_margin,
                "row_mix": {
                    ensemble.member_names[i]: c
                    for i, c in sorted(best_mix.items())
                },
            })
    return rows, points


def test_pareto_ensemble(benchmark):
    rows, points = run_once(benchmark, run_ensemble_sweep)
    headers = ["Benchmark", "target err %", "single-MLP savings",
               "ensemble savings", "ratio", "margin"]
    emit(banner("Ensemble vs single-MLP Pareto front (treeErrors)"))
    emit(format_table(headers, rows))
    for name in ENSEMBLE_APPS:
        app_rows = [r for r in rows if r[0] == name]
        # The routed front dominates the single-MLP deployment: no target
        # loses savings (margin→0 recovers the baseline exactly)...
        for row in app_rows:
            assert row[3] >= row[2] - 1e-9, row
        # ...and at least one target is strictly better.
        assert any(r[3] > r[2] + 1e-9 for r in app_rows), name
    report = {
        "targets": list(TARGETS),
        "margins": list(ENSEMBLE_MARGINS),
        "apps": list(ENSEMBLE_APPS),
        "points": points,
    }
    persist_report(report, ENSEMBLE_OUTPUT_PATH)


if __name__ == "__main__":
    import sys

    if "--ensemble-only" not in sys.argv:
        test_pareto_energy_quality(None)
    test_pareto_ensemble(None)
