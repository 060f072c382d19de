"""Per-figure experiment drivers (paper Sec. 5 plus the case studies).

Each function regenerates the data behind one table or figure of the paper
from the shared :class:`~repro.eval.schemes.BenchmarkEvaluation` material.
:func:`repro.eval.fidelity.collect` gathers their results into the data
the paper-fidelity rows (and ``repro report``) read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apps.registry import APPLICATION_NAMES
from repro.core.costs import CostModel
from repro.core.pipeline import simulate_pipeline
from repro.eval.schemes import BenchmarkEvaluation, evaluate_benchmark
from repro.errors import ConfigurationError
from repro.hardware.checker_hw import CheckerModel
from repro.hardware.npu import NPUModel
from repro.metrics.analysis import (
    SchemeQualityAnalysis,
    analyze_scheme_at_target,
    error_vs_fixed_curve,
    fixes_required_for_quality,
)
from repro.nn.mlp import MLP, Topology
from repro.nn.scaler import MinMaxScaler
from repro.nn.trainer import RPropTrainer
from repro.predictors.linear import LinearErrorPredictor, LinearValuePredictor
from repro.predictors.training import SCHEME_NAMES

__all__ = [
    "DEFAULT_TARGET_ERROR",
    "error_vs_fixed_sweep",
    "quality_target_analysis",
    "SchemeCostRow",
    "energy_speedup_table",
    "energy_vs_toq",
    "prediction_time_table",
    "GaussianCaseStudy",
    "gaussian_case_study",
    "ActivityCaseStudy",
    "cpu_activity_case_study",
    "HeadlineSummary",
    "headline_summary",
    "geomean",
]

#: The paper targets 90% output quality, i.e. 10% output error.
DEFAULT_TARGET_ERROR = 0.10

#: Checker hardware used by each scheme's energy/latency accounting.
_SCHEME_CHECKERS = {
    "Ideal": "none",
    "Random": "none",
    "Uniform": "none",
    "EMA": "ema",
    "linearErrors": "linear",
    "treeErrors": "tree",
}


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the convention for speedup/energy summaries)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0 or np.any(arr <= 0):
        raise ConfigurationError("geomean needs positive values")
    return float(np.exp(np.mean(np.log(arr))))


# --------------------------------------------------------------------- #
# Fig. 10 — output error vs elements fixed                              #
# --------------------------------------------------------------------- #
def error_vs_fixed_sweep(
    evaluation: BenchmarkEvaluation,
    fractions: Sequence[float] = tuple(np.linspace(0.0, 1.0, 11)),
) -> Dict[str, np.ndarray]:
    """Output error per scheme at each fixed-element fraction."""
    return {
        scheme: error_vs_fixed_curve(
            evaluation.scores[scheme], evaluation.errors, fractions
        )
        for scheme in SCHEME_NAMES
    }


# --------------------------------------------------------------------- #
# Figs. 11-13 — false positives, fixed elements, coverage @ 90% TOQ     #
# --------------------------------------------------------------------- #
def quality_target_analysis(
    evaluation: BenchmarkEvaluation,
    target_error: float = DEFAULT_TARGET_ERROR,
) -> Dict[str, SchemeQualityAnalysis]:
    """Figs. 11/12/13 quantities for every scheme at one quality target."""
    ideal_n_fixed, _ = fixes_required_for_quality(
        evaluation.scores["Ideal"], evaluation.errors, target_error
    )
    return {
        scheme: analyze_scheme_at_target(
            scheme,
            evaluation.scores[scheme],
            evaluation.errors,
            ideal_n_fixed=ideal_n_fixed,
            target_error=target_error,
        )
        for scheme in SCHEME_NAMES
    }


# --------------------------------------------------------------------- #
# Figs. 14-15 — energy and speedup                                      #
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SchemeCostRow:
    """One bar of Figs. 14/15: a scheme's whole-app energy and speedup."""

    scheme: str
    fix_fraction: float
    normalized_energy: float   # scheme energy / CPU baseline (Fig. 14 y-axis)
    energy_savings: float      # inverse of the above
    speedup: float             # vs CPU baseline (Fig. 15 y-axis)


def _scheme_checker(
    scheme: str, evaluation: BenchmarkEvaluation
) -> CheckerModel:
    predictor = evaluation.predictors.get(scheme)
    tree_depth = getattr(predictor, "max_depth", 7)
    return CheckerModel(
        kind=_SCHEME_CHECKERS[scheme],
        n_inputs=evaluation.backend.topology.n_inputs,
        tree_depth=tree_depth,
    )


def energy_speedup_table(
    evaluation: BenchmarkEvaluation,
    target_error: float = DEFAULT_TARGET_ERROR,
    cost_model: Optional[CostModel] = None,
) -> List[SchemeCostRow]:
    """Whole-app energy/speedup rows: unchecked NPU + all six schemes.

    Fix fractions come from each scheme's own requirement to reach the
    quality target (Fig. 12); the unchecked NPU fixes nothing and runs the
    larger Table 1 NPU topology.
    """
    cost_model = cost_model or CostModel(evaluation.app)
    rows: List[SchemeCostRow] = []

    npu_costs = cost_model.whole_app_costs(
        topology=evaluation.app.npu_topology,
        checker=CheckerModel("none"),
        fix_fraction=0.0,
    )
    rows.append(
        SchemeCostRow(
            scheme="NPU",
            fix_fraction=0.0,
            normalized_energy=npu_costs.normalized_energy,
            energy_savings=npu_costs.energy_savings,
            speedup=npu_costs.speedup,
        )
    )

    analyses = quality_target_analysis(evaluation, target_error)
    for scheme in SCHEME_NAMES:
        analysis = analyses[scheme]
        costs = cost_model.whole_app_costs(
            topology=evaluation.backend.topology,
            checker=_scheme_checker(scheme, evaluation),
            fix_fraction=analysis.fixed_fraction,
        )
        rows.append(
            SchemeCostRow(
                scheme=scheme,
                fix_fraction=analysis.fixed_fraction,
                normalized_energy=costs.normalized_energy,
                energy_savings=costs.energy_savings,
                speedup=costs.speedup,
            )
        )
    return rows


# --------------------------------------------------------------------- #
# Fig. 16 — energy vs target error rate (fft case study)                #
# --------------------------------------------------------------------- #
def energy_vs_toq(
    evaluation: BenchmarkEvaluation,
    target_errors: Sequence[float] = tuple(np.arange(0.01, 0.105, 0.01)),
    schemes: Sequence[str] = ("Ideal", "Random", "EMA", "linearErrors",
                              "treeErrors"),
    cost_model: Optional[CostModel] = None,
) -> Dict[str, np.ndarray]:
    """Normalized energy per scheme across target error rates."""
    cost_model = cost_model or CostModel(evaluation.app)
    result: Dict[str, np.ndarray] = {}
    for scheme in schemes:
        energies = np.empty(len(target_errors))
        checker = _scheme_checker(scheme, evaluation)
        for i, target in enumerate(target_errors):
            n_fixed, _ = fixes_required_for_quality(
                evaluation.scores[scheme], evaluation.errors, target
            )
            costs = cost_model.whole_app_costs(
                topology=evaluation.backend.topology,
                checker=checker,
                fix_fraction=n_fixed / evaluation.n_elements,
            )
            energies[i] = costs.normalized_energy
        result[scheme] = energies
    return result


# --------------------------------------------------------------------- #
# Fig. 17 — checker time relative to the NPU                            #
# --------------------------------------------------------------------- #
def prediction_time_table(
    evaluation: BenchmarkEvaluation, npu: Optional[NPUModel] = None
) -> Dict[str, float]:
    """Checker latency normalized to one accelerator invocation."""
    npu = npu or NPUModel()
    topology = evaluation.backend.topology
    return {
        scheme: _scheme_checker(scheme, evaluation).relative_time(npu, topology)
        for scheme in ("linearErrors", "treeErrors")
    }


# --------------------------------------------------------------------- #
# Fig. 5 + Sec. 3.2 — Gaussian case study, EVP vs EEP                   #
# --------------------------------------------------------------------- #
@dataclass
class GaussianCaseStudy:
    """Exact/approx outputs of a Gaussian kernel and the EVP/EEP accuracy."""

    inputs: np.ndarray
    exact: np.ndarray
    approx: np.ndarray
    errors: np.ndarray
    evp_distance: float   # mean |EVP score - true error|
    eep_distance: float   # mean |EEP score - true error|

    @property
    def eep_advantage(self) -> float:
        """How much closer EEP tracks the true errors than EVP (>1 = EEP wins)."""
        return self.evp_distance / self.eep_distance


def gaussian_case_study(
    n_train: int = 2000, n_test: int = 2000, seed: int = 0
) -> GaussianCaseStudy:
    """Reproduce the Sec. 3.2 observation on a Gaussian-pdf kernel.

    A small MLP approximates the Gaussian probability density over
    [-16, 16] (Fig. 5's setting); a linear value model (EVP) and a linear
    error model (EEP) are fit with the same model class, and their score
    accuracy against the true approximation errors is compared.  The paper
    reports average distances of 2.5 (EVP) vs 1 (EEP).
    """
    rng = np.random.default_rng(seed)
    x_train = rng.uniform(-16.0, 16.0, size=n_train).reshape(-1, 1)
    x_test = np.sort(rng.uniform(-16.0, 16.0, size=n_test)).reshape(-1, 1)

    def gaussian(x: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * (x / 4.0) ** 2).reshape(-1, 1)

    y_train = gaussian(x_train)
    in_scaler, out_scaler = MinMaxScaler(), MinMaxScaler()
    net = MLP(Topology((1, 2, 1)), rng=np.random.default_rng(seed))
    RPropTrainer(max_epochs=300, patience=40, seed=seed).train(
        net, in_scaler.fit_transform(x_train), out_scaler.fit_transform(y_train)
    )

    def approx_fn(x: np.ndarray) -> np.ndarray:
        return out_scaler.inverse_transform(net.forward(in_scaler.transform(x)))

    exact = gaussian(x_test)
    approx = approx_fn(x_test)
    errors = np.abs(approx - exact).ravel()

    train_approx = approx_fn(x_train)
    train_errors = np.abs(train_approx - y_train).ravel()

    eep = LinearErrorPredictor().fit(x_train, train_errors)
    evp = LinearValuePredictor().fit_values(x_train, y_train)
    eep_scores = eep.scores(features=x_test)
    evp_scores = evp.scores(features=x_test, approx_outputs=approx)

    return GaussianCaseStudy(
        inputs=x_test.ravel(),
        exact=exact.ravel(),
        approx=approx.ravel(),
        errors=errors,
        evp_distance=float(np.mean(np.abs(evp_scores - errors))),
        eep_distance=float(np.mean(np.abs(eep_scores - errors))),
    )


# --------------------------------------------------------------------- #
# Fig. 18 — CPU activity case study                                     #
# --------------------------------------------------------------------- #
@dataclass
class ActivityCaseStudy:
    """The Fig. 18 window: per-element differences, threshold, CPU trace."""

    percentage_difference: np.ndarray
    threshold: float
    recovery_bits: np.ndarray
    cpu_trace: np.ndarray
    fix_fraction: float
    max_keepup_speedup: float


def cpu_activity_case_study(
    benchmark: str = "fft",
    n_elements: int = 200,
    target_error: float = DEFAULT_TARGET_ERROR,
    seed: int = 0,
) -> ActivityCaseStudy:
    """Reproduce Fig. 18: a 200-element window of treeErrors detection.

    The threshold is set to the smallest value achieving the target output
    error over the window; the pipeline simulation provides the CPU
    activity trace.  The paper's instance needed a 0.33 threshold, fixed
    15% of elements, and could keep up with a 6.67x-faster accelerator.
    """
    evaluation = evaluate_benchmark(benchmark, seed=seed)
    scores = evaluation.scores["treeErrors"][:n_elements]
    errors = evaluation.errors[:n_elements]
    n_fixed, _ = fixes_required_for_quality(scores, errors, target_error)
    if n_fixed > 0:
        threshold = float(np.sort(scores)[::-1][n_fixed - 1])
    else:
        threshold = float(scores.max()) + 1.0
    bits = scores >= threshold if n_fixed > 0 else np.zeros_like(scores, bool)

    cost_model = CostModel(evaluation.app)
    cpu_cycles = cost_model.cpu_iteration_cycles()
    accel_cycles = cost_model.npu.invocation_cycles(evaluation.backend.topology)
    pipeline = simulate_pipeline(bits, accel_cycles, cpu_cycles)
    fix_fraction = bits.mean()
    return ActivityCaseStudy(
        percentage_difference=scores,
        threshold=threshold,
        recovery_bits=bits,
        cpu_trace=pipeline.activity_trace(resolution=max(int(accel_cycles), 1)),
        fix_fraction=float(fix_fraction),
        max_keepup_speedup=(1.0 / fix_fraction) if fix_fraction > 0 else float("inf"),
    )


# --------------------------------------------------------------------- #
# Headline summary (abstract numbers)                                   #
# --------------------------------------------------------------------- #
@dataclass
class HeadlineSummary:
    """The abstract's three numbers, recomputed over the full suite."""

    mean_unchecked_error: float          # unchecked accelerator, averaged over apps
    mean_rumba_error: float              # Rumba (treeErrors @ 90% TOQ)
    error_reduction: float               # ratio of the two (paper: 2.1x)
    npu_energy_savings: float            # geomean (paper: 3.2x)
    rumba_energy_savings: float          # geomean (paper: 2.2x)
    npu_speedup: float                   # geomean (paper: ~2.3x)
    rumba_speedup: float                 # geomean, same as NPU in the paper
    per_app: Dict[str, Dict[str, float]] = field(default_factory=dict)


def headline_summary(
    benchmarks: Sequence[str] = APPLICATION_NAMES,
    scheme: str = "treeErrors",
    target_error: float = DEFAULT_TARGET_ERROR,
    seed: int = 0,
) -> HeadlineSummary:
    """Recompute the abstract's numbers across the benchmark suite.

    The error-reduction comparator is the *unchecked approximation
    accelerator* — the same (Rumba-topology) accelerator with checking
    disabled; the energy/speedup comparator is the unchecked NPU row of
    Figs. 14/15 (the larger Table 1 NPU network).  Per-app results carry
    both unchecked error variants.
    """
    unchecked_errors: List[float] = []
    rumba_errors: List[float] = []
    npu_energy: List[float] = []
    rumba_energy: List[float] = []
    npu_speed: List[float] = []
    rumba_speed: List[float] = []
    per_app: Dict[str, Dict[str, float]] = {}

    for name in benchmarks:
        evaluation = evaluate_benchmark(name, seed=seed)
        rows = {r.scheme: r for r in energy_speedup_table(evaluation, target_error)}
        analyses = quality_target_analysis(evaluation, target_error)
        scheme_row = rows[scheme]
        achieved = analyses[scheme].achieved_error

        unchecked_errors.append(evaluation.unchecked_error)
        rumba_errors.append(achieved)
        npu_energy.append(rows["NPU"].energy_savings)
        rumba_energy.append(scheme_row.energy_savings)
        npu_speed.append(rows["NPU"].speedup)
        rumba_speed.append(scheme_row.speedup)
        per_app[name] = {
            "unchecked_error": evaluation.unchecked_error,
            "npu_unchecked_error": evaluation.npu_unchecked_error,
            "rumba_error": achieved,
            "fix_fraction": scheme_row.fix_fraction,
            "npu_energy_savings": rows["NPU"].energy_savings,
            "rumba_energy_savings": scheme_row.energy_savings,
            "npu_speedup": rows["NPU"].speedup,
            "rumba_speedup": scheme_row.speedup,
        }

    mean_unchecked = float(np.mean(unchecked_errors))
    mean_rumba = float(np.mean(rumba_errors))
    return HeadlineSummary(
        mean_unchecked_error=mean_unchecked,
        mean_rumba_error=mean_rumba,
        error_reduction=mean_unchecked / mean_rumba,
        npu_energy_savings=geomean(npu_energy),
        rumba_energy_savings=geomean(rumba_energy),
        npu_speedup=geomean(npu_speed),
        rumba_speedup=geomean(rumba_speed),
        per_app=per_app,
    )
