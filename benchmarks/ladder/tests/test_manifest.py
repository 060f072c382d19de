import copy
import json
import os

import workloads as W
from conftest import ROOT


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_committed_manifest_is_valid_and_matches_the_tables():
    doc = load()
    assert W.validate_manifest(doc) == []
    assert doc == W.manifest()
    assert W.validate_tables() == []
    assert doc["run_seconds"] == W.RUN_SECONDS
    assert round(doc["run_seconds"] / W.TRIAL_SECONDS) == W.DEFAULT_TRIALS


def test_every_per_layer_metric_names_what_it_moves():
    for metric in W.PER_LAYER:
        assert metric.moves in W.E2E_BY_NAME, metric.name
        assert metric.moves_on and set(metric.moves_on) <= set(W.BY_NAME)
        assert metric.measured_on and set(metric.measured_on) <= set(W.BY_NAME)


def test_validator_catches_each_limit():
    def broken(mutate):
        doc = copy.deepcopy(load())
        mutate(doc)
        return W.validate_manifest(doc)

    assert broken(lambda d: d["workloads"][0].update(name="bad name"))
    assert broken(lambda d: d["per_layer"][0].update(name="sp ace"))
    assert broken(lambda d: d["workloads"].extend(
        {"name": f"w{i}", "why": "x"} for i in range(3)))
    assert broken(lambda d: d["end_to_end"].extend(
        {"name": f"m{i}", "unit": "s", "better": "lower", "bound": 0.1}
        for i in range(11)))
    assert broken(lambda d: d["per_layer"].extend(
        {"name": f"p{i}", "unit": "s", "better": "lower"} for i in range(128)))
    assert broken(lambda d: d["end_to_end"][1].update(bound=0.3))
    assert broken(lambda d: d["end_to_end"].pop(0))          # no setup_s
    assert broken(lambda d: d["per_layer"][0].update(moves="x"))
    assert broken(lambda d: d["per_layer"].append(dict(d["per_layer"][0])))
    assert broken(lambda d: d.update(command=["python3", "benchmarks/x.py"]))
    assert broken(lambda d: d.update(paths=["../elsewhere"]))
    assert broken(lambda d: d.update(run_seconds=61))
    assert broken(lambda d: d.update(extra=1))
