"""Paper fidelity: the evaluation of Sec. 5 as one table of quantities.

:func:`collect` evaluates each requested application once at one seed and
returns the data behind every figure, the abstract's numbers and every
ablation as one JSON-serialisable dict (fractions stay fractions).
:data:`ROWS` declares the quantities read from it, each with the paper's
value and the shape the paper implies as a check; :data:`GRIDS` the
per-application tables; :data:`SOURCES` the sections and their notes.
:func:`render` is the one formatter of all of it, over a population of
runs: each row's median and range, and a status computed from its check
at every seed.  ``repro report`` renders a population of one, and
``EXPERIMENTS.md`` is the rendering of ``fidelity.json``, the runs at
:data:`SEEDS` that the rows are tested against.  Both files are rewritten
by running this module from the repository root::

    PYTHONPATH=src python -m repro.eval.fidelity
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.apps.datasets import natural_image
from repro.apps.registry import APPLICATION_NAMES, get_application
from repro.apps.mosaic import perforation_error_survey
from repro.core.config import RumbaConfig, TunerMode
from repro.core.offline import checker_data, prepare_system
from repro.core.pipeline import max_keepup_fix_fraction
from repro.core.placement import evaluate_placement
from repro.errors import ConfigurationError
from repro.eval.experiments import (
    DEFAULT_TARGET_ERROR, cpu_activity_case_study, energy_speedup_table,
    energy_vs_toq, error_vs_fixed_sweep, gaussian_case_study, geomean,
    headline_summary, prediction_time_table, quality_target_analysis)
from repro.eval.schemes import BenchmarkEvaluation, evaluate_benchmark
from repro.hardware.checker_hw import CheckerModel
from repro.hardware.npu import NPUModel
from repro.metrics.analysis import (
    error_cdf, error_vs_fixed_curve, fixes_required_for_quality)
from repro.metrics.quality import fig2_pair, mean_error_fraction, psnr
from repro.predictors.ema import EMAPredictor
from repro.predictors.training import SCHEME_NAMES
from repro.predictors.tree import DecisionTreeErrorPredictor
from repro.streams import streams
from repro.tables import markdown_table

__all__ = ["Row", "ROWS", "Grid", "GRIDS", "SOURCES", "SEEDS", "collect", "render"]

Data = Dict[str, Any]
Paper = Union[float, Tuple[float, float], None]

#: The bars of Figs. 14/15: the unchecked NPU, then every scheme.
_COLUMNS = ("NPU",) + tuple(SCHEME_NAMES)
_CDF_LEVELS = (0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50, 1.00)
#: The population ``fidelity.json`` holds and ``EXPERIMENTS.md`` renders.
SEEDS = range(5)


#: Figs. 11-13: the attribute of a scheme's quality analysis each plots.
_QUALITY = (("fig11", "false_positive_fraction"), ("fig12", "fixed_fraction"),
            ("fig13", "relative_coverage"))


def collect(
    apps: Sequence[str] = APPLICATION_NAMES,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
) -> Data:
    """Every figure's and ablation's data for ``apps`` at ``seed``.

    Means, geomeans and the pooled Fig. 1 CDF cover the evaluated apps.
    A case study or ablation that runs on one application (fft,
    inversek2j, sobel, kmeans) is present only when it is among ``apps``.
    """
    apps = list(apps)
    if not apps:
        raise ConfigurationError("need at least one benchmark")
    summary = headline_summary(apps, target_error=target_error, seed=seed)
    per: Data = defaultdict(dict)
    pooled = []
    npu = NPUModel()
    for name in apps:
        ev = evaluate_benchmark(name, seed=seed)
        analyses = quality_target_analysis(ev, target_error)
        costs = {r.scheme: r for r in energy_speedup_table(ev, target_error)}
        per["fig10"][name] = {s: c.tolist() for s, c in error_vs_fixed_sweep(ev).items()}
        for fig, attr in _QUALITY:
            per[fig][name] = {s: getattr(a, attr) for s, a in analyses.items()}
        for key, attr in (("fig14", "normalized_energy"), ("fig15", "speedup"),
                          ("savings", "energy_savings")):
            per[key][name] = {c: getattr(r, attr) for c, r in costs.items()}
        per["fig17"][name] = prediction_time_table(ev)
        pooled.append(ev.errors)
        rumba_t, npu_t = ev.app.rumba_topology, ev.app.npu_topology
        per["topology"][name] = {
            "topologies": f"{rumba_t} vs {npu_t}",
            "rumba_error": ev.unchecked_error, "npu_error": ev.npu_unchecked_error,
            "energy_ratio": npu.invocation_energy_pj(npu_t)
            / npu.invocation_energy_pj(rumba_t)}
        npu_area = npu.area_gates(ev.backend.topology)
        per["area"][name] = {"npu_gates": npu_area, **{  # the Fig. 7 extension
            kind: CheckerModel(kind, n_inputs=ev.backend.topology.n_inputs).area_gates(
                ev.predictors[scheme].coefficient_count() if scheme else 1) / npu_area
            for kind, scheme in (("linear", "linearErrors"), ("tree", "treeErrors"),
                                 ("ema", None))}}

    def over_apps(key: str, reduce, columns) -> Data:
        return {c: reduce([per[key][a][c] for a in apps]) for c in columns}

    curves = [(c, p["Ideal"]) for p in per["fig10"].values() for c in p.values()]
    errors = np.concatenate(pooled)
    _, below = error_cdf(errors, levels=np.array(_CDF_LEVELS))
    ratios = [t["energy_ratio"] for t in per["topology"].values()]
    data: Data = {
        "apps": apps, "seed": seed, "target_error": target_error,
        "headline": dataclasses.asdict(summary),
        "fig01": {"levels": list(_CDF_LEVELS), "below": below.tolist(),
                  "at_most_10pct": float(below[_CDF_LEVELS.index(0.10)]),
                  "tail_over_20pct": float((errors > 0.2).mean())},
        "fig02": _fig02(seed), "fig03": _fig03(seed), "fig05": _fig05(seed),
        "fig10": {"fixed": np.linspace(0.0, 1.0, 11).tolist(), "per_app": per["fig10"],
                  "ideal_slack": float(np.min([np.subtract(c, i) for c, i in curves])),
                  "error_at_full_fix": float(np.max([c[-1] for c, _ in curves]))},
        **{fig: {"per_app": per[fig], "mean": over_apps(
            fig, lambda v: float(np.mean(v)), SCHEME_NAMES)} for fig, _ in _QUALITY},
        "fig14": {"per_app": per["fig14"],
                  "geomean_savings": over_apps("savings", geomean, _COLUMNS)},
        "fig15": {"per_app": per["fig15"],
                  "geomean": over_apps("fig15", geomean, _COLUMNS)},
        "fig17": {"per_app": per["fig17"],
                  "max": over_apps("fig17", max, ("linearErrors", "treeErrors"))},
        "ablation": {"topology": {"per_app": per["topology"],
                                  "min_energy_ratio": min(ratios),
                                  "smaller_rumba_nets": sum(r > 1.0 for r in ratios)}},
        "extension": {"checker_area": {"per_app": per["area"], "max": over_apps(
                          "area", max, ("linear", "tree", "ema"))}},
    }
    fixed = data["fig12"]["mean"]
    data["fig12"]["extra_fixes"] = {s: fixed[s] - fixed["Ideal"]
                                    for s in ("Random", "linearErrors", "treeErrors")}
    if "fft" in apps:
        data["fig16"] = _fig16(evaluate_benchmark("fft", seed=seed))
        data["fig18"] = _fig18(seed, target_error)
        data["ablation"]["tuner"] = _tuner_modes(seed)
    if "inversek2j" in apps:
        ev = evaluate_benchmark("inversek2j", seed=seed)
        data["ablation"]["tree_depth"] = _tree_depth(ev, seed, target_error)
        data["extension"]["alt_accelerators"] = _alt_accelerators(ev, seed)
    if "sobel" in apps:
        ev = evaluate_benchmark("sobel", seed=seed)
        data["ablation"]["ema_window"] = _ema_window(ev, target_error)
        data["ablation"]["placement"] = _placement(ev)
    if "kmeans" in apps:
        # Its unchecked error is under the 10 % budget, so every scheme
        # fixes nothing there; at a 5 % budget the schemes differ.
        toq95 = quality_target_analysis(evaluate_benchmark("kmeans", seed=seed), 0.05)
        for fig, attr in _QUALITY:
            data[fig]["kmeans_toq95"] = {s: getattr(a, attr) for s, a in toq95.items()}
    return data


def _fig02(seed: int) -> Data:
    """Concentrated vs spread corruption of one image at the same mean error."""
    stream = streams(seed)
    image = natural_image((256, 256), seed=stream.fig2_image)
    pair = fig2_pair(image, pixel_fraction=0.10, seed=stream.fig2_noise)[:2]
    c, s = ({"mean_error": mean_error_fraction(img, image), "psnr_db": psnr(img, image)}
            for img in pair)
    return {"concentrated": c, "spread": s, "psnr_gain": s["psnr_db"] - c["psnr_db"],
            "mean_error_gap": abs(c["mean_error"] - s["mean_error"])}


def _fig03(seed: int) -> Data:
    """Mosaic brightness error over 800 flower images (loop perforation)."""
    survey = perforation_error_survey(n_images=800, skip_rate=0.995,
                                      seed=streams(seed).fig3)
    errors = survey.errors_percent
    return {"n_images": survey.n_images, "mean_error": survey.mean_error / 100,
            "max_error": survey.max_error / 100,
            "images_per_bucket": {
                f"{lo}-{hi}%": int(((errors >= lo) & (errors < hi)).sum())
                for lo, hi in ((0, 2), (2, 5), (5, 10), (10, 15), (15, 100))}}


def _fig05(seed: int) -> Data:
    """The Gaussian case study: a decimated Fig. 5 and the EVP/EEP distances."""
    study = gaussian_case_study(seed=streams(seed).fig5)
    idx = np.linspace(0, study.inputs.size - 1, 13).astype(int)
    return {"evp_distance": study.evp_distance, "eep_distance": study.eep_distance,
            "eep_advantage": study.eep_advantage,
            "series": {name: values[idx].tolist() for name, values in (
                ("input", study.inputs), ("exact", study.exact),
                ("approximate", study.approx), ("error", study.errors))}}


def _fig16(ev: BenchmarkEvaluation) -> Data:
    """Normalized energy across target error rates on fft."""
    curves = {s: c.tolist() for s, c in energy_vs_toq(ev).items()}
    ideal = curves["Ideal"]
    return {"targets": np.arange(0.01, 0.105, 0.01).tolist(), "curves": curves,
            "max_rise": float(np.max([np.diff(c) for c in curves.values()])),
            "ideal_slack": float(np.min([np.subtract(c, ideal)
                                         for c in curves.values()])),
            "tree_gap": np.subtract(curves["treeErrors"], ideal).tolist()}


def _fig18(seed: int, target_error: float) -> Data:
    """A 200-element window of treeErrors detection on fft."""
    study = cpu_activity_case_study("fft", n_elements=200,
                                    target_error=target_error, seed=seed)
    return {"threshold": study.threshold, "n_fixed": int(study.recovery_bits.sum()),
            "fix_fraction": study.fix_fraction,
            "max_keepup_speedup": study.max_keepup_speedup,
            "cpu_busy_samples": int(study.cpu_trace.sum()),
            "cpu_strip": "".join("#" if v else "." for v in study.cpu_trace[:100])}


def _tuner_modes(seed: int) -> Data:
    """Sec. 3.4: the three tuner modes' steady state on a live fft stream."""
    rng = np.random.default_rng(streams(seed).tuner)
    inputs = get_application("fft").test_inputs(rng)
    chunks = [inputs[i * 250:(i + 1) * 250] for i in range(20)]
    result: Data = {}
    for label, mode, extra in (
        ("toq", TunerMode.TOQ, {"target_output_quality": 0.9}),
        ("energy", TunerMode.ENERGY, {"iteration_budget_fraction": 0.15,
                                      "initial_threshold": 0.5}),
        ("quality", TunerMode.QUALITY, {"initial_threshold": 1.0}),
    ):
        config = RumbaConfig(scheme="treeErrors", mode=mode, **extra)
        system = prepare_system("fft", config=config, seed=seed)
        late = system.run_stream(chunks)[-6:]
        result[label] = {"fix_fraction": float(np.mean([r.fix_fraction for r in late])),
                         "error": float(np.mean([r.measured_error for r in late])),
                         "threshold": system.tuner.threshold,
                         "kept_up": all(r.pipeline.cpu_kept_up for r in late)}
    result["keepup_limit"] = max_keepup_fix_fraction(
        system.cost_model.npu.invocation_cycles(system.backend.topology),
        system.cost_model.cpu_iteration_cycles())
    return result


def _tree_depth(ev: BenchmarkEvaluation, seed: int, target_error: float) -> Data:
    """treeErrors refit at each depth on the same training material."""
    training = checker_data(ev.app, ev.backend, seed=seed)
    result: Data = {}
    for depth in (1, 2, 3, 5, 7, 9):
        tree = DecisionTreeErrorPredictor(max_depth=depth).fit(
            training.features, training.errors)
        n_fixed, _ = fixes_required_for_quality(
            tree.scores(features=ev.features), ev.errors, target_error)
        checker = CheckerModel("tree", tree_depth=depth)
        result[str(depth)] = {
            "fixed": n_fixed / ev.n_elements, "coefficients": tree.coefficient_count(),
            "checker_time": checker.relative_time(NPUModel(), ev.backend.topology)}
    return result


def _ema_window(ev: BenchmarkEvaluation, target_error: float) -> Data:
    """The EMA detector's history window N (alpha = 2 / (1 + N), Eq. 2)."""
    result: Data = {}
    for window in (1, 3, 7, 15, 31, 63):
        ema = EMAPredictor(history=window)
        n_fixed, achieved = fixes_required_for_quality(
            ema.scores(approx_outputs=ev.approx), ev.errors, target_error)
        result[str(window)] = {"alpha": ema.alpha, "fixed": n_fixed / ev.n_elements,
                               "achieved": achieved}
    result["max_achieved"] = max(w["achieved"] for w in result.values())
    return result


def _placement(ev: BenchmarkEvaluation) -> Data:
    """Sec. 3.5: the checker before (config 1) or beside (config 2) the NPU."""
    topology = ev.app.rumba_topology
    checker = CheckerModel("tree", n_inputs=topology.n_inputs)
    rates = np.linspace(0.0, 0.8, 9)
    runs = {c: [evaluate_placement(c, NPUModel(), checker, topology, r) for r in rates]
            for c in (1, 2)}
    cycles = {c: [p.cycles_per_iteration for p in runs[c]] for c in runs}
    energy = {c: [p.energy_pj_per_iteration for p in runs[c]] for c in runs}
    return {"fire_rates": rates.tolist(),
            **{f"config{c}": {"energy_pj": energy[c], "cycles": cycles[c]} for c in runs},
            "config1_extra_cycles": float(np.min(np.subtract(cycles[1], cycles[2]))),
            "config1_saving_pj": np.subtract(energy[2], energy[1]).tolist()}


Substrate = Tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]


def _calibrated_ranges(app, seed: int
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-column input and output ranges of 1,000 training rows from
    ``seed``'s calibration stream: the rails both Sec. 4 substrates are
    calibrated to."""
    rng = np.random.default_rng(streams(seed).alt_calibration)
    sample = np.atleast_2d(np.asarray(app.train_inputs(rng), dtype=float))
    if sample.shape[0] > 1000:
        sample = sample[rng.choice(sample.shape[0], 1000, replace=False)]
    outputs = app.exact(sample)
    return sample.min(axis=0), sample.max(axis=0), outputs.min(axis=0), outputs.max(axis=0)


def _quantized_datapath(app, seed: int, bits: int = 5) -> Substrate:
    """A reduced-precision datapath ([41]-style): the exact kernel between
    inputs and outputs quantized to ``bits`` bits across the calibrated
    ranges.  Its errors are deterministic, input-dependent rounding; the
    checker sees the quantized inputs, as the datapath does."""
    in_lo, in_hi, out_lo, out_hi = _calibrated_ranges(app, seed)
    levels = (1 << bits) - 1

    def quantize(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        span = np.where(hi - lo == 0.0, 1.0, hi - lo)
        unit = np.clip((values - lo) / span, 0.0, 1.0)
        return lo + np.round(unit * levels) / levels * span

    def features(inputs: np.ndarray) -> np.ndarray:
        return quantize(np.atleast_2d(np.asarray(inputs, dtype=float)), in_lo, in_hi)

    return features, lambda inputs: quantize(app.exact(features(inputs)), out_lo, out_hi)


def _analog_datapath(app, seed: int, noise_fraction: float = 0.04) -> Substrate:
    """A limited-precision analog datapath ([4]-style): the exact value plus
    Gaussian noise that grows with the signal (``noise_fraction`` of the
    output range at the low rail), saturated at the calibrated output
    rails.  ``seed``'s noise stream feeds every call in order."""
    _, _, lo, hi = _calibrated_ranges(app, seed)
    span = np.where(hi - lo == 0.0, 1.0, hi - lo)
    rng = np.random.default_rng(streams(seed).alt_noise)

    def approximate(inputs: np.ndarray) -> np.ndarray:
        exact = app.exact(inputs)
        magnitude = np.abs(exact - lo) / span + 0.25
        noise = rng.normal(0.0, 1.0, size=exact.shape)
        return np.clip(exact + noise * magnitude * noise_fraction * span, lo, hi)

    return (lambda inputs: np.atleast_2d(np.asarray(inputs, dtype=float))), approximate


def _alt_accelerators(ev: BenchmarkEvaluation, seed: int) -> Data:
    """Sec. 4: the detection recipe on two non-NPU substrates, 30 % fixed."""
    schemes = ("Ideal", "Random", "EMA", "treeErrors")
    app = ev.app
    result: Data = {"npu": {"unchecked": ev.unchecked_error, **{
        s: float(error_vs_fixed_curve(ev.scores[s], ev.errors, [0.3])[0])
        for s in schemes}}}
    stream = streams(seed)
    for label, (features, approximate) in (
            ("quantized_5bit", _quantized_datapath(app, seed)),
            ("analog_4pct", _analog_datapath(app, seed))):
        train = app.train_inputs(np.random.default_rng(stream.alt_train))[:2000]
        tree = DecisionTreeErrorPredictor().fit(
            features(train), app.element_errors(approximate(train), app.exact(train)))
        test = app.test_inputs(np.random.default_rng(stream.alt_test))[:4000]
        approx = approximate(test)
        errors = app.element_errors(approx, app.exact(test))
        scores = {"Ideal": errors,
                  "Random": np.random.default_rng(stream.alt_random).random(errors.size),
                  "EMA": EMAPredictor().scores(approx_outputs=approx),
                  "treeErrors": tree.scores(features=features(test))}
        result[label] = {"unchecked": float(errors.mean()), **{
            s: float(error_vs_fixed_curve(scores[s], errors, [0.0, 0.3])[1])
            for s in schemes}}
    return result


@dataclass(frozen=True)
class Row:
    """One regenerated quantity.

    ``paper`` is the paper's value, a ``(lo, hi)`` pair where the paper
    gives a range, or None for a quantity only this reproduction measures.
    ``value`` reads the quantity in ``unit`` from :func:`collect`'s data
    and raises KeyError when its inputs were not evaluated; ``check``,
    when set, is the shape the paper implies and may read any of the data.
    """

    id: str
    source: str
    paper: Paper
    unit: str
    value: Callable[[Data], float]
    check: Optional[Callable[[Data], bool]] = None
    note: str = ""


def _get(data: Any, path: str) -> Any:
    for key in path.split("."):
        data = data[int(key)] if isinstance(data, list) else data[key]
    return data


def _row(id: str, source: str, paper: Paper, unit: str,
         check: Optional[Callable[[Data], bool]] = None, *,
         ok: Optional[Callable[[float], bool]] = None, path: str = "",
         suite: bool = False, note: str = "") -> Row:
    """A row whose value is the number at ``path`` (default: its id).

    Data keeps fractions; a row in ``%`` or ``pp`` shows them times 100.
    ``ok`` is a check on the row's own value, in its unit.  A ``suite``
    row (a mean over the suite, say) needs every application evaluated.
    """
    scale = 100.0 if unit in ("%", "pp") else 1.0

    def value(data: Data) -> float:
        missing = set(APPLICATION_NAMES) - set(data["apps"]) if suite else ()
        if missing:
            raise KeyError(f"{id} needs {sorted(missing)}")
        return scale * _get(data, path or id)

    if ok is not None:
        check = lambda d: ok(value(d))  # noqa: E731
    return Row(id, source, paper, unit, value, check, note or _REASONS.get(id, ""))


# Checks compare numbers directly, never through ``not``, so every one is
# False on data whose numbers are NaN.
def _mean(d: Data, fig: str, scheme: str) -> float:
    return d[fig]["mean"][scheme]


def _error_reduction_identity(d: Data) -> bool:
    """The row is mean(unchecked) / mean(Rumba) over the apps, and each app's
    Rumba error is min(unchecked, budget) less under the last fixed element's
    share of its mean (an error of at most ~2 over >= 4,096 elements)."""
    apps, budget = d["headline"]["per_app"].values(), d["target_error"]
    ratio = (np.mean([a["unchecked_error"] for a in apps])
             / np.mean([a["rumba_error"] for a in apps]))
    return (abs(d["headline"]["error_reduction"] - ratio) <= 1e-12
            and all(0 <= min(a["unchecked_error"], budget) - a["rumba_error"] < 1e-3
                    for a in apps))


# (field, paper, unit) of the abstract's numbers.
_HEADLINE = (
    ("mean_unchecked_error", 20.6, "%"), ("mean_rumba_error", 10.0, "%"),
    ("error_reduction", 2.1, "x"), ("npu_energy_savings", 3.2, "x"),
    ("rumba_energy_savings", 2.2, "x"), ("npu_speedup", (2.1, 2.3), "x"),
    ("rumba_speedup", (2.1, 2.3), "x"),
)
_PAPER = {
    "fig11.mean": {"Ideal": 0.0, "Random": 14.8, "Uniform": 14.5, "EMA": 13.3,
                   "linearErrors": 2.1, "treeErrors": 0.76},
    "fig12.mean": {"Random": 41.0},
    "fig13.mean": {"Ideal": 100.0, "linearErrors": 57.6, "treeErrors": 67.2},
    "fig14.geomean_savings": {"NPU": 3.2, "treeErrors": 2.2},
    "fig15.geomean": {"NPU": (2.1, 2.3), "treeErrors": (2.1, 2.3)},
}
_CHECKS = {
    "headline.error_reduction": _error_reduction_identity,
    "fig11.mean.Ideal": lambda d: _mean(d, "fig11", "Ideal") == 0.0,
    "fig11.mean.treeErrors": lambda d: _mean(d, "fig11", "treeErrors")
    < min(_mean(d, "fig11", "Random"), _mean(d, "fig11", "EMA")),
    "fig13.mean.Ideal": lambda d: _mean(d, "fig13", "Ideal") == 1.0,
    "fig13.mean.treeErrors": lambda d: _mean(d, "fig13", "treeErrors")
    > _mean(d, "fig13", "Random"),
    "fig12.extra_fixes.treeErrors": lambda d: _mean(d, "fig12", "Ideal")
    <= _mean(d, "fig12", "treeErrors") <= _mean(d, "fig12", "linearErrors") + 1e-11
    and _mean(d, "fig12", "treeErrors") < _mean(d, "fig12", "Random"),
    "fig14.geomean_savings.treeErrors": lambda d: (
        lambda g: g["NPU"] > g["treeErrors"] > 1.5 and g["treeErrors"] >= g["Random"])(
            d["fig14"]["geomean_savings"]),
    "fig15.geomean.treeErrors": lambda d: d["fig15"]["geomean"]["treeErrors"]
    > 0.85 * d["fig15"]["geomean"]["NPU"],
}
_KMEANS_NOTE = (
    "kmeans' unchecked error (fig12.kmeans.unchecked_error) sits about the 10 % "
    "budget, under it at most seeds, where at 90 % TOQ every scheme fixes nothing "
    "on it: its Figs. 11/12 entries read 0 and its Fig. 13 entry 100. The "
    "kmeans_toq95 rows measure it at a 5 % budget.")
_KMEANS = "headline.per_app.kmeans"
# Headline fields and figure prefixes whose rows only the cost models set.
_ANALYTIC = {"npu_energy_savings", "rumba_energy_savings", "npu_speedup",
             "rumba_speedup", "fig14.geomean_savings", "fig15.geomean"}
_ANALYTIC_NOTE = (
    "Analytic models only. Energy is a sum of per-event charges in `EnergyModel` "
    "and `NPUModel` (per instruction class and cache access, per MAC, lookup and "
    "queue word) with no time-dependent term, so no cycle model moves an energy "
    "row: the unchecked NPU's distance to the paper, and Rumba's with it, comes "
    "from those constants. "
    "Cycles come from the bound-based models alone: cycle simulators in their "
    "place pushed the speedup rows out of the paper's band (DESIGN.md, "
    "substitutions).")

_UNCHECKED = (
    "Our unchecked accelerator (the Rumba topology, checking off, on synthetic "
    "inputs where the paper's are not shipped) errs less than the paper's. The "
    "fixing loop stops each over-budget app at the first element that meets the "
    "budget, so the error reduction is the unchecked accelerator's number, which "
    "no checker moves: its check is that identity.")
_FEWER_FIXES = (
    "Our unchecked accelerator errs less than the paper's (Abstract), so every "
    "scheme needs fewer fixes to meet the budget: the blind schemes re-execute and "
    "fire falsely on fewer elements than the paper's, and treeErrors' extra fixes "
    "above Ideal are fewer too.")
_FIG18 = ("One 200-element window of fft at each seed; the paper's instance is "
          "another window of another accelerator, so its numbers are one example "
          "of the regime, which ours share: a threshold well below the largest "
          "scores, a fraction of the window re-executed, a CPU that keeps up.")
#: Why a row sits off the paper's value, or fails its check at some seeds.
_REASONS = {
    "headline.mean_unchecked_error": _UNCHECKED,
    "headline.error_reduction": _UNCHECKED,
    "headline.mean_rumba_error": (
        "Under the paper's 10 % by construction: the fixing loop stops each "
        "over-budget app at the first element that brings it under the budget, "
        "and an app already under it (kmeans, at most seeds) is not fixed."),
    "fig01.at_most_10pct": (
        "Our benchmarks run harder inputs than the paper's sketch assumes, so "
        "fewer elements sit under 10 % error. The shape Rumba exploits (most "
        "errors small, a long tail of large ones) holds at every seed but seed 2: "
        "there kmeans' and sobel's 40,000 pixels, over half the pooled elements, "
        "have 23 % and 30 % of their errors under 10 % (67 % and 56 % at seed 0), "
        "so only 34 % of all elements are."),
    "fig03.mean_error": (
        "The paper reports an average of about 5 % over its photographs; ours "
        "lies just above 5 % at every seed, so the paper's 5 falls just outside "
        "our range."),
    "ablation.topology.min_energy_ratio": (
        "The check also holds each app's unchecked-NPU error within 1.6x + 1 pp "
        "of the Rumba network's. At seed 3 one app's NPU-topology network errs "
        "22.2 % against its Rumba network's 9.2 %."),
    "fig03.max_error": (
        "The mean matches; our procedural flower population has a heavier tail, "
        "so the worst image lies further above it."),
    "fig05.eep_advantage": (
        "The direction and the conclusion, use EEP, are the paper's; our factor is "
        "far larger, and varies with the seed's network, because the linear value "
        "model fits a Gaussian very poorly."),
    "fig11.mean.linearErrors": (
        "Fires falsely more often than the paper's linear checker, because fft's "
        "and inversek2j's error structure defeats a strictly linear model, yet "
        "less than the blind schemes."),
    **dict.fromkeys(("fig11.mean.Random", "fig11.mean.Uniform", "fig11.mean.EMA",
                     "fig12.mean.Random", "fig12.extra_fixes.Random",
                     "fig12.extra_fixes.treeErrors"), _FEWER_FIXES),
    **dict.fromkeys(("fig18.threshold", "fig18.fix_fraction",
                     "fig18.max_keepup_speedup"), _FIG18),
}

ROWS: Tuple[Row, ...] = (
    # The abstract: 20.6 % -> 10 % error (2.1x), 3.2x -> 2.2x energy
    # savings at the NPU's speedup.
    *(_row(f"headline.{field}", "Abstract", paper, unit,
           _CHECKS.get(f"headline.{field}"), suite=True,
           note=_ANALYTIC_NOTE if field in _ANALYTIC else "")
      for field, paper, unit in _HEADLINE),
    # Fig. 1: most elements have small errors, a tail has large ones.
    _row("fig01.at_most_10pct", "Fig. 1", 80.0, "%", lambda d: d["fig01"]
         ["at_most_10pct"] > 0.5 and d["fig01"]["below"][-1] <= 1.0, suite=True),
    _row("fig01.tail_over_20pct", "Fig. 1", None, "%", ok=lambda v: v > 2, suite=True),
    # Fig. 2: one average error, two perceptual qualities.
    _row("fig02.mean_error_gap", "Fig. 2", None, "pp", ok=lambda v: v < 1.0),
    _row("fig02.psnr_gain", "Fig. 2", None, "dB", ok=lambda v: v > 0),
    # Fig. 3: input-dependent error, the worst case far above the mean.
    _row("fig03.mean_error", "Fig. 3", 5.0, "%", ok=lambda v: 1 < v < 15),
    _row("fig03.max_error", "Fig. 3", 23.0, "%", lambda d: d["fig03"]["n_images"]
         == 800 and d["fig03"]["max_error"] > 3 * d["fig03"]["mean_error"]),
    # Fig. 5 / Sec. 3.2: predicting the error beats predicting the value.
    _row("fig05.eep_advantage", "Fig. 5", 2.5, "x", ok=lambda v: v > 1),
    # Fig. 10: Ideal bounds every scheme; fixing everything leaves no error.
    _row("fig10.ideal_slack", "Fig. 10", None, "pp", ok=lambda v: v >= -1e-10),
    _row("fig10.error_at_full_fix", "Fig. 10", None, "%", ok=lambda v: v <= 1e-7),
    _row("fig10.inversek2j.treeErrors_at_30pct", "Fig. 10", None, "%",
         lambda d: (lambda c: c["Ideal"][3] <= c["treeErrors"][3] < c["Random"][3])(
             d["fig10"]["per_app"]["inversek2j"]),
         path="fig10.per_app.inversek2j.treeErrors.3"),
    # Figs. 11-15, averaged over the suite; kmeans is the outlier.
    *(_row(f"{fig}.{s}", f"Fig. {fig[3:5]}", _PAPER[fig].get(s), unit,
           _CHECKS.get(f"{fig}.{s}"), suite=True,
           note=_ANALYTIC_NOTE if fig in _ANALYTIC else "")
      for fig, unit, columns in (
          ("fig11.mean", "%", SCHEME_NAMES), ("fig12.mean", "%", SCHEME_NAMES),
          ("fig13.mean", "%", SCHEME_NAMES), ("fig14.geomean_savings", "x", _COLUMNS),
          ("fig15.geomean", "x", _COLUMNS))
      for s in columns),
    *(_row(f"fig12.extra_fixes.{s}", "Fig. 12", paper, "pp",
           _CHECKS.get(f"fig12.extra_fixes.{s}"), suite=True)
      for s, paper in (("Random", 29.0), ("linearErrors", 9.0), ("treeErrors", 6.0))),
    _row("fig12.kmeans.unchecked_error", "Fig. 12", None, "%",
         path=f"{_KMEANS}.unchecked_error", note=_KMEANS_NOTE),
    *(_row(f"fig{n}.kmeans_toq95.{s}", f"Fig. {n}", None, "%", note=_KMEANS_NOTE)
      for n in (11, 12, 13) for s in ("Ideal", "Random", "linearErrors", "treeErrors")),
    _row("fig14.kmeans.npu_energy_savings", "Fig. 14", None, "x",
         ok=lambda v: v < 1.6, path=f"{_KMEANS}.npu_energy_savings"),
    _row("fig15.kmeans.npu_speedup", "Fig. 15", None, "x",
         ok=lambda v: v < 1.0, path=f"{_KMEANS}.npu_speedup"),
    # Fig. 16 (fft): energy falls as the target loosens, Ideal is the
    # cheapest, the tree's gap to Ideal is widest at the strictest target.
    _row("fig16.max_rise", "Fig. 16", None, "ratio", ok=lambda v: v <= 1e-12),
    _row("fig16.ideal_slack", "Fig. 16", None, "ratio", ok=lambda v: v >= -1e-12),
    _row("fig16.tree_gap_at_1pct", "Fig. 16", None, "ratio", lambda d: d["fig16"]
         ["tree_gap"][0] >= d["fig16"]["tree_gap"][-1] - 1e-12, path="fig16.tree_gap.0"),
    # Fig. 17: every checker finishes inside one NPU invocation.
    *(_row(f"fig17.max.{s}", "Fig. 17", (0.0, 1.0), "NPU invocations",
           ok=lambda v: v < 1.0) for s in ("linearErrors", "treeErrors")),
    # Fig. 18 (fft): one 200-element window of the online loop.
    _row("fig18.threshold", "Fig. 18", 0.33, "score"),
    _row("fig18.fix_fraction", "Fig. 18", 15.0, "%", ok=lambda v: 3 < v < 50),
    _row("fig18.max_keepup_speedup", "Fig. 18", 6.67, "x", ok=lambda v: v > 2),
    # Ablations, measured here only.
    _row("ablation.topology.min_energy_ratio", "Table 1 ablation", None, "x",
         lambda d: d["ablation"]["topology"]["min_energy_ratio"] >= 1.0 and all(
             100 * t["npu_error"] <= 100 * t["rumba_error"] * 1.6 + 1.0
             for t in d["ablation"]["topology"]["per_app"].values())),
    _row("ablation.topology.smaller_rumba_nets", "Table 1 ablation", None, "apps",
         ok=lambda v: v >= 4, suite=True),
    # Depth 7 needs no more fixes than depth 1 and is within 3 points of 9.
    _row("ablation.tree_depth.7.fixed", "Tree-depth ablation", None, "%",
         lambda d: (lambda t: t["7"]["fixed"] <= t["1"]["fixed"] + 1e-11 and abs(
             t["9"]["fixed"] - t["7"]["fixed"]) < 0.03)(d["ablation"]["tree_depth"])),
    _row("ablation.ema_window.max_achieved", "EMA-window ablation", None, "%",
         lambda d: d["ablation"]["ema_window"]["max_achieved"] <= 0.10 + 1e-11
         and all(0.0 <= w["fixed"] <= 1.0 for k, w in
                 d["ablation"]["ema_window"].items() if k != "max_achieved")),
    _row("ablation.placement.config1_extra_cycles", "Sec. 3.5", None, "cycles",
         ok=lambda v: v > 0),
    _row("ablation.placement.config1_saving_at_80pct_fire_rate", "Sec. 3.5", None, "pJ",
         lambda d: bool(np.all(np.diff(d["ablation"]["placement"]["config1_saving_pj"])
                               > 0)), path="ablation.placement.config1_saving_pj.8"),
    _row("ablation.tuner.toq.error", "Sec. 3.4", None, "%", ok=lambda v: v < 10),
    _row("ablation.tuner.energy.fix_fraction", "Sec. 3.4", None, "%",
         ok=lambda v: abs(v - 15) < 10),
    _row("ablation.tuner.quality.fix_fraction", "Sec. 3.4", None, "%",
         lambda d: (lambda t: 0.25 * t["keepup_limit"] < t["quality"]["fix_fraction"]
                    < 1.3 * t["keepup_limit"])(d["ablation"]["tuner"])),
    # Extensions beyond the paper's figures.
    *(_row(f"extension.checker_area.max.{kind}", "Fig. 7 extension", None, "%",
           ok=lambda v, cap=cap: v < cap)
      for kind, cap in (("linear", 60), ("tree", 60), ("ema", 20))),
    *(_row(f"extension.alt_accelerators.{sub}.treeErrors", "Sec. 4 extension", None,
           "%", lambda d, sub=sub: (lambda r: r["Ideal"] <= r["treeErrors"] + 1e-12 and
                                    r["treeErrors"] < min(r["unchecked"], r["Random"]))(
               d["extension"]["alt_accelerators"][sub]))
      for sub in ("npu", "quantized_5bit", "analog_4pct")),
)


@dataclass(frozen=True)
class Grid:
    """A per-application table: one line per evaluated application, each
    of ``columns`` of its entry under ``path`` formatted with ``fmt``."""

    source: str
    title: str
    path: str
    columns: Tuple[str, ...]
    fmt: str


GRIDS: Tuple[Grid, ...] = (
    Grid("Fig. 11", "False positives per application (share of all elements)",
         "fig11.per_app", SCHEME_NAMES, ".1%"),
    Grid("Fig. 12", "Elements re-executed per application", "fig12.per_app",
         SCHEME_NAMES, ".1%"),
    Grid("Fig. 15", "Energy savings and speedup per application (Figs. 14–15)",
         "headline.per_app", ("npu_energy_savings", "rumba_energy_savings",
                              "npu_speedup", "rumba_speedup"), ".2f"),
    Grid("Fig. 17", "Checker time per application, in NPU invocations",
         "fig17.per_app", ("linearErrors", "treeErrors"), ".3f"),
)

#: The document's sections in order: each row's and grid's ``source``, a
#: heading, and what the paper shows there beside how our numbers compare.
#: A note states no number: the rows and grids carry them.  A source no row
#: reads (Tables 1-2, the Pareto bench) renders its note alone.
SOURCES: Tuple[Tuple[str, str, str], ...] = (
    ("Abstract", "the headline numbers",
     "Means (error) and geomeans (energy, speedup) over the whole suite. The shape "
     "holds: Rumba cuts the unchecked accelerator's error substantially, gives back "
     "part of the NPU's energy savings and keeps its speedup, and kmeans is the "
     "outlier the paper names (almost no energy gain and a slowdown, Figs. 14-15)."),
    ("Table 1", "benchmarks and topologies",
     "Constants, no rows: domains, train/test data sizes, Rumba and NPU topologies "
     "and metrics are reproduced verbatim in `repro.apps.registry`. The data are "
     "synthetic where the paper's are not shipped (DESIGN.md, substitutions)."),
    ("Table 2", "the x86-64 core",
     "Constants, no rows: reproduced verbatim as `repro.hardware.TABLE2_X86_64`."),
    ("Fig. 1", "error CDF",
     "Pooled over the suite's elements. The paper's sketch has the bulk of the "
     "elements at small errors and a long tail."),
    ("Fig. 2", "concentrated vs spread errors",
     "Two corruptions of one image share one mean pixel error, set by the clipping "
     "headroom of a tenth of the pixels at maximum error, while the PSNR favours "
     "the spread one: the paper's perceptual point."),
    ("Fig. 3", "mosaic input dependence",
     "Mosaic brightness error over procedural flower images under loop "
     "perforation; the mechanism is the paper's (strided perforation aliasing "
     "against image structure). This section carries Challenge II, that output "
     "quality depends on the input: one skip rate leaves most images near the "
     "mean error and a few far above it."),
    ("Fig. 5", "Gaussian, EVP vs EEP (Sec. 3.2)",
     "The small-MLP Gaussian approximation's errors concentrate on a narrow input "
     "region. EEP (predict the error) tracks the true errors more closely than EVP "
     "(predict the value, then diff)."),
    ("Fig. 10", "error vs elements fixed",
     "Seven per-benchmark sweeps of six schemes. The checks: Ideal bounds every "
     "scheme at every fraction, fixing everything leaves no error, and at 30 % "
     "fixed on inversek2j the order is the paper's worked example (the tree near "
     "Ideal, well below Random). Accuracy depends on the benchmark, as the paper "
     "observes: our linear checker is strong on blackscholes and weak on fft and "
     "inversek2j, whose error profiles are not monotone."),
    ("Fig. 11", "false positives at the quality target",
     "Shares of all elements."),
    ("Fig. 12", "elements re-executed at the quality target",
     "`extra_fixes` is a scheme's mean share re-executed above Ideal's, in "
     "percentage points."),
    ("Fig. 13", "large-error coverage at the quality target",
     "The share of the large-error elements a scheme fixes, relative to Ideal."),
    ("Fig. 14", "energy savings",
     "Geomean whole-application energy savings against the CPU baseline. The "
     "paper's order is reproduced: the unchecked NPU saves most, Ideal bounds the "
     "fixing schemes, treeErrors is the best realizable one and the blind schemes "
     "cost most."),
    ("Fig. 15", "speedup",
     "Rumba keeps the NPU's speedup. Random, Uniform and EMA lose some: their "
     "extra fixes exceed the CPU's keep-up rate on inversek2j and blackscholes."),
    ("Fig. 16", "energy vs target quality on fft",
     "Energy falls as the quality demand loosens for every scheme, Ideal is the "
     "cheapest everywhere and the tree's gap to Ideal is widest at the strictest "
     "target, where false positives bite: the paper's three observations, each a "
     "check."),
    ("Fig. 17", "prediction time",
     "Checker latency over one NPU invocation stays under one for both checkers "
     "on every benchmark, so prediction never stalls the accelerator: the "
     "paper's claim."),
    ("Fig. 18", "CPU activity on fft",
     "One 200-element treeErrors window: the threshold, the share of elements "
     "above it, and how much faster an accelerator the CPU would keep up with."),
    ("Sec. 3.4", "tuner modes",
     "Each online tuner mode's steady state on a live fft stream. Energy mode "
     "converges the fix rate onto its budget; TOQ mode drives the mean error well "
     "below the budget by fixing every element predicted above it; Quality mode "
     "settles into the CPU's keep-up band, below the uniform-spacing limit "
     "because recovery demand is bursty."),
    ("Sec. 3.5", "detector placement",
     "On sobel, config 2 (the checker beside the NPU) wins on latency at every "
     "fire rate, while config 1's (the checker before it) energy advantage grows "
     "linearly with the fire rate: the trade-off of Sec. 3.5, quantified."),
    ("Tree-depth ablation", "treeErrors depth on inversek2j",
     "The fixes required fall with depth and flatten by depth 7, the paper's cap, "
     "while comparator latency and coefficient count keep rising."),
    ("EMA-window ablation", "the EMA history window on sobel",
     "Every window reaches the quality target; the fixes needed vary mildly with "
     "the window."),
    ("Table 1 ablation", "Rumba's topologies vs the NPU's",
     "Table 1's NPU networks cost at least as much energy per invocation as "
     "Rumba's, more wherever Rumba's network is smaller; Rumba tolerates the "
     "cheaper network because detection and recovery clean up its extra error."),
    ("Fig. 7 extension", "checker area",
     "Tests the paper's claim that its checkers are \"light-weight\": each fitted "
     "checker's datapath and coefficient buffer as a share of the NPU PE array's "
     "gates."),
    ("Sec. 4 extension", "other accelerators",
     "Tests Sec. 4's claim that the design \"can apply to other accelerator based "
     "approximate computing systems\": the same recipe (a tree checker trained on "
     "observed errors, the top-scored elements fixed) on a reduced-precision "
     "datapath and a noisy analog accelerator. Fixing helps, the checker beats "
     "blind fixing and Ideal bounds everything."),
    ("Pareto bench", "energy/quality frontier",
     "Not a row: `benchmarks/bench_pareto_energy_quality.py` sweeps the quality "
     "target per benchmark. Its frontiers are monotone, and the Abstract's outlier "
     "is the only benchmark that never pays; its ensemble sweep writes "
     "`BENCH_ensemble.json`."),
)

_GENERATED = (
    "Generated; do not edit. `PYTHONPATH=src python -m repro.eval.fidelity`, run "
    "from the repository root, rewrites `fidelity.json` and `EXPERIMENTS.md` from "
    "one collection over the whole suite at each seed, and `python -m repro report` "
    "renders one seed for any subset. The rows, the tables and every note come "
    "from `src/repro/eval/fidelity.py`: edit that file, then regenerate.")
_READING = (
    "Our substrate is a software simulator calibrated to the paper's hardware "
    "models, so absolute numbers are not expected to match; the comparison "
    "tracks the shape: who wins, by roughly what factor, and where the "
    "crossovers fall. A row is one regenerated quantity: the paper's value (— "
    "where the paper gives none), ours as the median [min–max] over the seeds, "
    "its unit, and its status. Its check is the shape the paper implies: FAIL "
    "when it fails at every seed, PARTIAL when at the seeds named; DEVIATES when "
    "it holds at every seed but the paper's value lies outside our range; READY "
    "otherwise. Every seed draws each of its data streams (the accelerator's and "
    "the checker's training rows, the evaluation rows and each experiment's "
    "inputs) from generator seeds no other seed draws (`streams` in "
    "`streams.py`), so the seeds are independent replicates, and the "
    "[min–max] of five runs is a distribution-free 1 − 2·2⁻⁵ = 93.75 % interval "
    "for the median of the seed population: DEVIATES means the paper's value "
    "lies outside that interval. Rows and tables whose applications were not "
    "evaluated are left out. Tier-1 re-derives every seed and compares this file "
    "with the rendering of `fidelity.json`.")


def _paper(paper: Paper) -> str:
    if isinstance(paper, tuple):
        return f"{paper[0]:g}–{paper[1]:g}"
    return "—" if paper is None else f"{paper:g}"


def _endpoint(value: float, paper: Paper) -> str:
    """``value`` to 3 significant digits, or more until it keeps its side
    of each of the paper's values: 9.998 beside 10 does not print as 10."""
    marks = paper if isinstance(paper, tuple) else () if paper is None else (paper,)
    digits = 3
    while np.isfinite(value) and any(
            np.sign(float(f"{value:.{digits}g}") - m) != np.sign(value - m)
            for m in marks):
        digits += 1
    return f"{value:.{digits}g}"


def _status(row: Row, runs: Sequence[Data], values: Sequence[float]) -> str:
    """FAIL when the check fails at every seed, PARTIAL (naming the seeds)
    when at some, DEVIATES when it holds at every seed but the paper's
    value or range lies outside the seeds' range, READY otherwise."""
    failing = [str(d["seed"]) for d in runs if row.check and not row.check(d)]
    if len(failing) == len(runs):
        return "FAIL"
    if failing:
        return f"PARTIAL (seed{'s' * (len(failing) > 1)} {', '.join(failing)})"
    lo, hi = row.paper if isinstance(row.paper, tuple) else (row.paper, row.paper)
    if row.paper is not None and (hi < min(values) or lo > max(values)):
        return "DEVIATES"
    return "READY"


def _section(runs: Sequence[Data], rows: Sequence[Row],
             grids: Sequence[Grid]) -> List[str]:
    """The lines of one source's rows, their notes and its grids that the
    runs hold the inputs of; a grid reads the first run."""
    notes: List[str] = []
    table = []
    for row in rows:
        try:
            values = [row.value(data) for data in runs]
        except KeyError:
            continue
        lo, hi = min(values), max(values)
        ours = f"{np.median(values):.3g}" + (
            f" [{_endpoint(lo, row.paper)}–{_endpoint(hi, row.paper)}]"
            if lo != hi else "")
        name = f"`{row.id}`"
        if row.note:
            if row.note not in notes:
                notes.append(row.note)
            name += f" [{notes.index(row.note) + 1}]"
        table.append([name, _paper(row.paper), ours, row.unit,
                      _status(row, runs, values)])
    lines: List[str] = []
    if table:
        lines += [markdown_table(["id", "paper", "ours", "unit", "status"], table), ""]
    for i, note in enumerate(notes, 1):
        lines += [f"[{i}] {note}", ""]
    for grid in grids:
        try:
            entries = _get(runs[0], grid.path)
        except KeyError:
            continue
        cells = [[app, *(format(entries[app][c], grid.fmt) for c in grid.columns)]
                 for app in runs[0]["apps"]]
        lines += [f"### {grid.title} (seed {runs[0]['seed']})", "",
                  markdown_table(["benchmark", *grid.columns], cells), ""]
    return lines


def render(runs: Sequence[Data]) -> str:
    """The paper-vs-measured document of :func:`collect`'s runs over one
    suite at several seeds: each of :data:`SOURCES` with its note, rows
    and grids, left out when the runs lack the inputs of all its rows and
    grids."""
    first, target = runs[0], runs[0]["target_error"]
    digest = hashlib.sha256(json.dumps(list(runs), indent=1).encode()).hexdigest()[:16]
    lines = ["# Rumba reproduction: paper vs. measured", "", _GENERATED, "",
             f"Benchmarks: {', '.join(first['apps'])}; quality target "
             f"{1 - target:.0%} (error budget {target:.0%}); seeds "
             f"{', '.join(str(d['seed']) for d in runs)}; data sha256 `{digest}`.",
             "", _READING, ""]
    for source, title, note in SOURCES:
        rows = [row for row in ROWS if row.source == source]
        grids = [grid for grid in GRIDS if grid.source == source]
        body = _section(runs, rows, grids)
        if body or not (rows or grids):
            lines += [f"## {source}: {title}", "", note, "", *body]
    return "\n".join(lines).rstrip("\n")


if __name__ == "__main__":
    snapshot = json.dumps([collect(APPLICATION_NAMES, seed=s) for s in SEEDS],
                          indent=1, allow_nan=False)
    Path("fidelity.json").write_text(snapshot + "\n")
    Path("EXPERIMENTS.md").write_text(render(json.loads(snapshot)) + "\n")
