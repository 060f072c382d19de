"""The paper-fidelity table against its committed snapshot.

``fidelity.json`` at the repository root is ``collect(APPLICATION_NAMES,
seed=0)`` and ``EXPERIMENTS.md`` its rendering.  A change that moves a
number or a note on purpose regenerates both with ``PYTHONPATH=src python
-m repro.eval.fidelity`` (from the repository root) and says which rows
moved.
"""

import copy
import json
import math
from pathlib import Path

import pytest

from repro.apps.registry import APPLICATION_NAMES
from repro.eval.fidelity import GRIDS, ROWS, SOURCES, collect, render

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


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text())


def _failing(data):
    return [row.id for row in ROWS if row.check is not None and not row.check(data)]


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


def test_every_row_resolves_and_every_check_passes_on_the_snapshot(snapshot):
    assert len({row.id for row in ROWS}) == len(ROWS)
    for row in ROWS:
        assert math.isfinite(row.value(snapshot)), row.id
    assert _failing(snapshot) == []


def test_every_check_fails_on_nan_data(snapshot):
    """A check that holds on NaNs holds on anything: it checks nothing."""
    nan = _numbers_to_nan(snapshot)
    checked = [row.id for row in ROWS if row.check is not None]
    assert sorted(_failing(nan)) == sorted(checked)


def test_headline_checks_flag_drift(snapshot):
    drifted = copy.deepcopy(snapshot)
    drifted["headline"]["npu_energy_savings"] = 10.0
    assert _failing(drifted) == ["headline.npu_energy_savings"]


def test_headline_checks_flag_multiple_drifts(snapshot):
    drifted = copy.deepcopy(snapshot)
    drifted["headline"]["npu_energy_savings"] = 10.0
    drifted["headline"]["rumba_speedup"] = 0.5
    assert sorted(_failing(drifted)) == [
        "headline.npu_energy_savings", "headline.rumba_speedup"]


def test_the_papers_values_are_rows():
    paper = {row.id: row.paper for row in ROWS}
    assert {key: paper.get(key) for key in PAPER_VALUES} == PAPER_VALUES


def test_experiments_md_is_the_rendering_of_the_snapshot(snapshot):
    """Neither file is edited by hand: the snapshot is in the form the
    generator writes, and the document is its rendering (whose header
    carries a digest of all of it, so any edit to either shows here)."""
    assert SNAPSHOT.read_text() == json.dumps(snapshot, indent=1) + "\n"
    assert EXPERIMENTS.read_text() == render(snapshot) + "\n"


def test_every_source_is_a_section():
    sections = [source for source, _, _ in SOURCES]
    assert len(set(sections)) == len(sections)
    assert {item.source for item in (*ROWS, *GRIDS)} <= set(sections)


@pytest.mark.slow
def test_live_collection_reproduces_the_snapshot(snapshot, monkeypatch):
    """Training is bit-reproducible, so a fresh seed-0 collection (every
    app trained once per topology, nothing more) equals the snapshot."""
    from repro.core import offline
    from repro.eval import schemes

    trained = []
    train = offline.train_npu_backend

    def counting(app, use_rumba_topology, seed):
        trained.append((app.name, use_rumba_topology))
        return train(app, use_rumba_topology=use_rumba_topology, seed=seed)

    monkeypatch.setattr(offline, "train_npu_backend", counting)
    monkeypatch.setattr(offline, "_BACKEND_CACHE", {})
    monkeypatch.setattr(schemes, "_EVAL_CACHE", {})
    data = json.loads(json.dumps(collect(APPLICATION_NAMES, seed=0),
                                 allow_nan=False))
    assert sorted(trained) == sorted(
        (app, rumba) for app in APPLICATION_NAMES for rumba in (True, False))
    _assert_close(data, snapshot)
    assert _failing(data) == []
