"""The paper-fidelity ledger against its committed population.

``fidelity.json`` at the repository root is ``[collect(APPLICATION_NAMES,
seed=s) for s in SEEDS]`` and ``EXPERIMENTS.md`` its rendering: each row's
median and range over the seeds and its status.  Tier-1 re-derives seed 0
on an empty store and seeds 1-4 from the shared one, each to 1e-9.  A
change that moves a number or a note on purpose regenerates both with
``PYTHONPATH=src python -m repro.eval.fidelity`` (from the repository root)
and says which rows moved; one that moves a row into PARTIAL edits
``PARTIAL_ROWS`` here as well.
"""

import copy
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import mosaic
from repro.apps.registry import APPLICATION_NAMES, get_application
from repro.streams import streams
from repro.eval import fidelity
from repro.eval.fidelity import (
    GRIDS, ROWS, SEEDS, SOURCES, Row, _endpoint, _status, collect, render)

SNAPSHOT = Path(__file__).resolve().parents[2] / "fidelity.json"
EXPERIMENTS = SNAPSHOT.with_name("EXPERIMENTS.md")

#: The paper's numbers each row must carry (abstract, Figs. 1-18).
PAPER_VALUES = {
    "headline.mean_unchecked_error": 20.6,
    "headline.mean_rumba_error": 10.0,
    "headline.error_reduction": 2.1,
    "headline.npu_energy_savings": 3.2,
    "headline.rumba_energy_savings": 2.2,
    "headline.npu_speedup": (2.1, 2.3),
    "headline.rumba_speedup": (2.1, 2.3),
    "fig01.at_most_10pct": 80.0,
    "fig03.mean_error": 5.0,
    "fig03.max_error": 23.0,
    "fig05.eep_advantage": 2.5,
    "fig11.mean.Random": 14.8,
    "fig11.mean.Uniform": 14.5,
    "fig11.mean.EMA": 13.3,
    "fig11.mean.linearErrors": 2.1,
    "fig11.mean.treeErrors": 0.76,
    "fig12.mean.Random": 41.0,
    "fig12.extra_fixes.Random": 29.0,
    "fig12.extra_fixes.linearErrors": 9.0,
    "fig12.extra_fixes.treeErrors": 6.0,
    "fig13.mean.linearErrors": 57.6,
    "fig13.mean.treeErrors": 67.2,
    "fig14.geomean_savings.NPU": 3.2,
    "fig14.geomean_savings.treeErrors": 2.2,
    "fig15.geomean.NPU": (2.1, 2.3),
    "fig15.geomean.treeErrors": (2.1, 2.3),
    "fig17.max.linearErrors": (0.0, 1.0),
    "fig17.max.treeErrors": (0.0, 1.0),
    "fig18.threshold": 0.33,
    "fig18.fix_fraction": 15.0,
    "fig18.max_keepup_speedup": 6.67,
}


#: The rows whose check fails at some seeds (and holds at others).
PARTIAL_ROWS = {"fig01.at_most_10pct", "ablation.topology.min_energy_ratio"}


@pytest.fixture(scope="module")
def runs():
    return json.loads(SNAPSHOT.read_text())


def _failing(data):
    return [row.id for row in ROWS if row.check is not None and not row.check(data)]


def _statuses(runs):
    return {row.id: _status(row, runs, [row.value(d) for d in runs]) for row in ROWS}


def _numbers_to_nan(node):
    if isinstance(node, dict):
        return {key: _numbers_to_nan(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_numbers_to_nan(value) for value in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return math.nan
    return node


def _assert_close(got, want, path="$"):
    """``got`` equals ``want``, numbers to 1e-9 relative."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15), (path, got, want)
    else:
        assert got == want, path


def test_every_row_resolves_on_every_seed(runs):
    assert [d["seed"] for d in runs] == list(SEEDS)
    assert len({row.id for row in ROWS}) == len(ROWS)
    for data in runs:
        for row in ROWS:
            assert math.isfinite(row.value(data)), (row.id, data["seed"])


def test_every_check_fails_on_nan_data(runs):
    """A check that holds on NaNs holds on anything: it checks nothing."""
    checked = sorted(row.id for row in ROWS if row.check is not None)
    for data in runs:
        assert sorted(_failing(_numbers_to_nan(data))) == checked, data["seed"]


def test_no_row_fails_and_every_partial_or_deviating_row_says_why(runs):
    statuses = _statuses(runs)
    assert not [i for i, status in statuses.items() if status == "FAIL"]
    assert {i for i, status in statuses.items()
            if status.startswith("PARTIAL")} == PARTIAL_ROWS
    notes = {row.id: row.note for row in ROWS}
    assert not [i for i, status in statuses.items()
                if status.startswith(("PARTIAL", "DEVIATES")) and not notes[i]]


@pytest.mark.parametrize("seed", SEEDS)
def test_error_reduction_is_the_unchecked_accelerators_number(runs, seed):
    """The row is mean(unchecked) / mean(Rumba) over the apps, and each
    app's Rumba error sits on the budget (fft is over it at every seed)."""
    def flagged(scale=1.0, **fft):
        data = copy.deepcopy(runs[seed])
        headline = data["headline"]
        headline["per_app"]["fft"].update(fft)
        apps = headline["per_app"].values()
        headline["error_reduction"] = scale * (
            np.mean([a["unchecked_error"] for a in apps])
            / np.mean([a["rumba_error"] for a in apps]))
        return "headline.error_reduction" in _failing(data)

    budget = runs[seed]["target_error"]
    assert not flagged()
    assert flagged(scale=1 + 1e-9)
    assert flagged(rumba_error=budget + 1e-9)
    assert flagged(rumba_error=budget - 2e-3)


def _population(*values):
    return [{"seed": seed, "x": x} for seed, x in enumerate(values)]


@pytest.mark.parametrize("values,paper,status", [
    ((1.0, 2.0, 3.0, 4.0, 5.0), 3.5, "READY"),
    ((1.0, -2.0, 3.0, 4.0, 5.0), 3.5, "PARTIAL (seed 1)"),
    ((1.0, -2.0, 3.0, -4.0, 5.0), None, "PARTIAL (seeds 1, 3)"),
    ((-1.0, -2.0, -3.0, -4.0, -5.0), None, "FAIL"),
    ((1.0, 2.0, 3.0, 4.0, 5.0), 6.0, "DEVIATES"),
    ((1.0, 2.0, 3.0, 4.0, 5.0), (5.5, 7.0), "DEVIATES"),
    ((1.0, 2.0, 3.0, 4.0, 5.0), (4.5, 7.0), "READY"),
    ((1.0,), 1.0, "READY"),
    ((-1.0,), 1.0, "FAIL"),
])
def test_the_status_rule(values, paper, status):
    runs = _population(*values)
    row = Row("x", "test", paper, "x", lambda d: d["x"], lambda d: d["x"] > 0)
    assert _status(row, runs, values) == status
    unchecked = Row("x", "test", paper, "x", lambda d: d["x"])
    assert _status(unchecked, runs, values) in ("READY", "DEVIATES")


@pytest.mark.parametrize("value,paper,text", [
    (9.998, 10.0, "9.998"),
    (10.0004, 10.0, "10.0004"),
    (10.0, 10.0, "10"),
    (8.8512, 10.0, "8.85"),
    (2.0996, (2.1, 2.3), "2.0996"),
    (1.23456, None, "1.23"),
    (float("nan"), 10.0, "nan"),
])
def test_range_endpoints_never_round_onto_the_papers_value(value, paper, text):
    assert _endpoint(value, paper) == text


def test_a_population_of_one_renders_through_the_same_path(runs):
    text = render(runs[:1])
    assert "seeds 0;" in text and "`headline.error_reduction`" in text
    assert "| FAIL |" not in text and "| READY |" in text


class _Drawn(Exception):
    """Raised by a stub once an experiment has drawn all its inputs."""


def _stop(*args, **kwargs):
    raise _Drawn


#: A stand-in application for the core's trainers and evaluation: each
#: stops at the rows it draws, after drawing them.
_STUB_APP = SimpleNamespace(name="stub", train_inputs=_stop, test_inputs=_stop)


def _core(monkeypatch, seed):
    """Both topologies' accelerator training, the checker's training
    rows, the Random checker's scores and the evaluation rows.  (A
    network's initialisation and trainer draw the seed its rows do.)"""
    from repro.core import offline
    from repro.eval import schemes

    for rumba in (True, False):
        with pytest.raises(_Drawn):
            offline.prepare_backend(_STUB_APP, rumba, seed=seed, cache=False)
    with pytest.raises(_Drawn):
        offline.checker_data(_STUB_APP, None, seed=seed, cache=False)
    offline.prepare_checker(_STUB_APP, None, "Random", seed=seed,
                            cache=False).scores(features=np.zeros((1, 1)))
    monkeypatch.setattr(schemes, "get_application", lambda name: _STUB_APP)
    monkeypatch.setattr(schemes, "prepare_backend", lambda *a, **k: None)
    with pytest.raises(_Drawn):
        schemes.evaluate_benchmark("stub", seed=seed, cache=False)


def _stream_seeds(monkeypatch, family, seed):
    """Every generator seed ``family`` draws at ``seed``: each
    ``default_rng`` it (or what it calls) makes, and every image seed.
    A ``(seed, k)`` pair is the integer ``seed + k * 2**32``, as numpy
    reads it.  What comes after an experiment's last draw is stubbed."""
    drawn = set()
    real = np.random.default_rng

    def record(stream):
        words = stream if isinstance(stream, tuple) else (stream,)
        drawn.add(sum(int(word) << (32 * i) for i, word in enumerate(words)))

    def default_rng(stream=None):
        record(stream)
        return real(stream)

    def image(shape, seed):
        record(seed)
        return np.ones(shape)

    def gaussian_case_study(seed):  # its rows, network and trainer
        record(seed)
        raise _Drawn

    app = get_application("inversek2j")
    ev = SimpleNamespace(app=app, unchecked_error=0.0, errors=np.zeros(10),
                         scores={s: np.zeros(10) for s in ("Ideal", "Random", "EMA",
                                                           "treeErrors")})
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    monkeypatch.setattr(mosaic, "flower_image", image)
    monkeypatch.setattr(fidelity, "gaussian_case_study", gaussian_case_study)
    monkeypatch.setattr(fidelity, "prepare_system", _stop)
    try:
        {"core": lambda: _core(monkeypatch, seed),
         "fig02": lambda: fidelity._fig02(seed),
         "fig03": lambda: fidelity._fig03(seed),
         "fig05": lambda: fidelity._fig05(seed),
         "tuner": lambda: fidelity._tuner_modes(seed),
         "alt_accelerators": lambda: fidelity._alt_accelerators(ev, seed)}[family]()
    except _Drawn:
        pass
    monkeypatch.undo()
    return drawn


_FAMILIES = ("core", "fig02", "fig03", "fig05", "tuner", "alt_accelerators")


@pytest.fixture(scope="module")
def drawn():
    """Seed -> family -> the generator seeds it draws."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {seed: {family: _stream_seeds(monkeypatch, family, seed)
                       for family in _FAMILIES} for seed in SEEDS}


@pytest.mark.parametrize("family", _FAMILIES)
def test_the_ledgers_own_experiments_draw_disjoint_streams_across_seeds(
        drawn, family):
    """Seeds 0-4 are independent replicates: no generator seed ``family``
    draws at one seed (derived ones included: Fig. 3's images) is
    drawn at another, by the core or by any of the ledger's experiments.
    So the ledger's [min–max] over them is an interval for the median of
    the seed population."""
    for seed in SEEDS:
        mine = drawn[seed][family]
        others = set().union(*(streams for other, families in drawn.items()
                               if other != seed for streams in families.values()))
        assert mine
        assert not mine & others, (seed, sorted(mine & others)[:10])


def test_no_seed_evaluates_on_rows_another_seed_trains_on():
    """fft draws its training and its test rows alike, so one generator
    seed gives one set of rows (ROADMAP (I)): had two seeds shared a
    stream, one seed's evaluation rows would be another's training rows."""
    app = get_application("fft")

    def rows(draw, stream):
        return {row.tobytes() for row in draw(np.random.default_rng(stream))}

    assert rows(app.train_inputs, 2) == rows(app.test_inputs, 2)
    for seed in SEEDS:
        evaluation = rows(app.test_inputs, streams(seed).evaluation)
        for other in SEEDS:
            trained = streams(other)
            for stream in (trained.accelerator, trained.checker_training):
                assert not evaluation & rows(app.train_inputs, stream), (
                    seed, other)


def test_the_papers_values_are_rows():
    paper = {row.id: row.paper for row in ROWS}
    assert {key: paper.get(key) for key in PAPER_VALUES} == PAPER_VALUES


def test_experiments_md_is_the_rendering_of_the_snapshot(runs):
    """Neither file is edited by hand: the snapshot is in the form the
    generator writes, and the document is its rendering (whose header
    carries a digest of all of it, so any edit to either shows here)."""
    assert SNAPSHOT.read_text() == json.dumps(runs, indent=1) + "\n"
    assert EXPERIMENTS.read_text() == render(runs) + "\n"


def test_every_source_is_a_section():
    sections = [source for source, _, _ in SOURCES]
    assert len(set(sections)) == len(sections)
    assert {item.source for item in (*ROWS, *GRIDS)} <= set(sections)


def test_every_extension_quotes_the_paper():
    """An extension section tests a claim of the paper, and its note
    quotes that claim's words in double quotes."""
    extensions = {source: note for source, _, note in SOURCES
                  if source.endswith("extension")}
    assert extensions
    unquoted = [source for source, note in extensions.items()
                if not re.search(r'"[^"]+"', note)]
    assert not unquoted


@pytest.mark.slow
def test_live_collection_reproduces_the_snapshot(runs, monkeypatch, tmp_path):
    """Training is bit-reproducible, so a fresh seed-0 collection (every
    app trained once per topology, nothing more, into an empty store)
    equals the snapshot, and each network the store then gives back is
    the one trained."""
    from repro.apps.registry import get_application
    from repro.core import offline
    from repro.eval import schemes
    from tests.core.test_offline import assert_same_backend

    trained = []
    backends = {}
    train = offline.train_npu_backend

    def counting(app, use_rumba_topology, seed):
        trained.append((app.name, use_rumba_topology))
        result = train(app, use_rumba_topology=use_rumba_topology, seed=seed)
        backends[app.name, use_rumba_topology] = result[0]
        return result

    monkeypatch.setattr(offline, "train_npu_backend", counting)
    monkeypatch.setattr(offline, "_BACKEND_CACHE", {})
    monkeypatch.setattr(offline, "_DATA_CACHE", {})
    monkeypatch.setattr(offline, "STORE_DIR", tmp_path / "npu")
    monkeypatch.setattr(schemes, "_EVAL_CACHE", {})
    data = json.loads(json.dumps(collect(APPLICATION_NAMES, seed=0),
                                 allow_nan=False))
    assert sorted(trained) == sorted(
        (app, rumba) for app in APPLICATION_NAMES for rumba in (True, False))
    _assert_close(data, runs[0])
    assert _failing(data) == []
    for (name, rumba), backend in backends.items():
        app = get_application(name)
        assert_same_backend(backend, offline._store_load(app, rumba, 0), app)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [s for s in SEEDS if s])
def test_the_shared_store_reproduces_every_other_seed(runs, monkeypatch, seed):
    """Seeds 1-4 re-derived through the shared store (training only what it
    lacks), each equal to its committed run."""
    from repro.core import offline
    from repro.eval import schemes

    monkeypatch.setattr(offline, "_BACKEND_CACHE", {})
    monkeypatch.setattr(offline, "_DATA_CACHE", {})
    monkeypatch.setattr(schemes, "_EVAL_CACHE", {})
    data = json.loads(json.dumps(collect(APPLICATION_NAMES, seed=seed),
                                 allow_nan=False))
    _assert_close(data, runs[seed])
