"""Unit tests for offline preparation, its cache and its on-disk store."""

import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APPLICATION_NAMES, get_application
from repro.core import offline
from repro.core.config import RumbaConfig
from repro.core.offline import (
    clear_cache,
    prepare_backend,
    prepare_ensemble,
    prepare_system,
)
from repro.errors import ConfigurationError
from repro.nn.mlp import Topology
from repro.predictors.linear import LinearErrorPredictor
from repro.predictors.tree import DecisionTreeErrorPredictor, TreeNode
from tests.predictors.reference_tree import predictor_for


def assert_same_backend(a, b, app):
    """Bit-identical weights, scalers and outputs on 2,000 test rows."""
    np.testing.assert_array_equal(a.network.get_flat_params(),
                                  b.network.get_flat_params())
    for x, y in ((a.input_scaler, b.input_scaler),
                 (a.output_scaler, b.output_scaler)):
        for u, v in zip(x.state(), y.state()):
            assert u.dtype == v.dtype
            np.testing.assert_array_equal(u, v)
    assert a.input_columns == b.input_columns
    rows = app.test_inputs(np.random.default_rng(2))[:2000]
    np.testing.assert_array_equal(a(rows), b(rows))
    np.testing.assert_array_equal(a.unfused_call(rows), b.unfused_call(rows))


def assert_same_checker(a, b, features):
    """Bit-identical coefficients, depth and scores on ``features``."""
    assert type(a) is type(b)
    assert (np.array(a.coefficients()).tobytes()
            == np.array(b.coefficients()).tobytes())
    assert a.coefficient_count() == b.coefficient_count()
    if isinstance(a, DecisionTreeErrorPredictor):
        assert a.depth == b.depth
    assert (a.scores(features=features).tobytes()
            == b.scores(features=features).tobytes())


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An empty on-disk store, and empty in-process caches before it."""
    monkeypatch.setattr(offline, "STORE_DIR", tmp_path / "npu")
    monkeypatch.setattr(offline, "_BACKEND_CACHE", {})
    monkeypatch.setattr(offline, "_DATA_CACHE", {})
    monkeypatch.setattr(offline, "_ENSEMBLE_CACHE", {})
    return tmp_path / "npu"


@pytest.fixture
def fits(monkeypatch):
    """What the checker trainer does: ``"collect"`` for each collection of
    checker data, the scheme for each checker fit."""
    calls = []
    fit, collect = offline.train_predictor, offline.collect_training_data

    def fitting(scheme, data, seed=0):
        calls.append(scheme)
        return fit(scheme, data, seed=seed)

    def collecting(app, backend, seed=1):
        calls.append("collect")
        return collect(app, backend, seed=seed)

    monkeypatch.setattr(offline, "train_predictor", fitting)
    monkeypatch.setattr(offline, "collect_training_data", collecting)
    return calls


#: Floats a stored checker must carry exactly: signed zeros, subnormals
#: and magnitudes near overflow among any other finite value.
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_INFINITIES = st.sampled_from([np.inf, -np.inf])


@st.composite
def fitted_checkers(draw):
    """(checker, n_features): a linear checker of random weights or a tree
    of depth 0-7 over up to 18 features, both with edge-case numbers (a
    tree's thresholds ±inf too, where the fit cuts a column holding them)."""
    n_features = draw(st.integers(1, 18))
    if draw(st.booleans()):
        checker = LinearErrorPredictor()
        checker.weights = np.array(draw(st.lists(
            _EDGE_FLOATS, min_size=n_features, max_size=n_features)))
        checker.bias = draw(_EDGE_FLOATS)
        checker._fitted = True
        return checker, n_features

    def grow(depth_left):
        if depth_left == 0 or draw(st.integers(0, 2)) == 0:
            return TreeNode(value=draw(_EDGE_FLOATS))
        return TreeNode(feature=draw(st.integers(0, n_features - 1)),
                        threshold=draw(_EDGE_FLOATS | _INFINITIES),
                        left=grow(depth_left - 1),
                        right=grow(depth_left - 1))

    return predictor_for(grow(draw(st.integers(0, 7))), n_features), n_features


@pytest.fixture
def trainings(monkeypatch):
    """The ``(app, rumba?)`` of every training ``prepare_backend`` runs."""
    calls = []
    train = offline.train_npu_backend

    def counting(app, use_rumba_topology, seed):
        calls.append((app.name, use_rumba_topology))
        return train(app, use_rumba_topology=use_rumba_topology, seed=seed)

    monkeypatch.setattr(offline, "train_npu_backend", counting)
    return calls


class TestPrepareBackend:
    def test_cache_returns_same_object(self):
        app = get_application("fft")
        a = prepare_backend(app, seed=0)
        b = prepare_backend(app, seed=0)
        assert a is b

    def test_cache_keyed_by_seed_and_topology(self):
        app = get_application("fft")
        a = prepare_backend(app, seed=0)
        b = prepare_backend(app, use_rumba_topology=False, seed=0)
        assert a is not b
        assert a.topology != b.topology

    def test_cache_bypass(self):
        app = get_application("fft")
        a = prepare_backend(app, seed=0)
        b = prepare_backend(app, seed=0, cache=False)
        assert a is not b

    def test_an_app_that_only_shares_a_registry_name_trains(self):
        app = get_application("fft")
        registry = prepare_backend(app, seed=0)
        wider = dataclasses.replace(
            app, rumba_topology=Topology.parse("1->4->2"))
        backend = prepare_backend(wider, seed=0)
        assert backend is not registry
        assert backend.topology == Topology.parse("1->4->2")
        ensemble = prepare_ensemble(wider, seed=0)
        assert ensemble is not prepare_ensemble(app, seed=0)
        assert ensemble.reference.topology == Topology.parse("1->4->2")


#: Two processes prepare one key at the same moment: each says it is
#: ready, waits for the go file, then prints its trained weights.
_RACER = """
import sys, time
from pathlib import Path
from repro.apps import get_application
from repro.core import offline
offline.STORE_DIR = Path(sys.argv[1])
Path(sys.argv[2]).touch()
while not Path(sys.argv[3]).exists():
    time.sleep(0.001)
backend = offline.prepare_backend(get_application("fft"))
print(backend.network.get_flat_params().tobytes().hex())
"""


class TestStore:
    @pytest.mark.parametrize("rumba", [True, False])
    @pytest.mark.parametrize("name", ["fft", "jmeint"])
    def test_a_warm_load_is_the_trained_backend(self, store, trainings,
                                                name, rumba):
        app = get_application(name)
        cold = prepare_backend(app, rumba, seed=0)
        assert len(list(store.glob("*.npz"))) == 1
        clear_cache()
        warm = prepare_backend(app, rumba, seed=0)
        assert trainings == [(name, rumba)]
        assert warm is not cold
        assert_same_backend(cold, warm, app)

    def test_a_changed_training_source_changes_the_digest(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(offline._PACKAGE, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        digest = offline._source_digest()
        assert offline._source_digest(copy) == digest
        runtime = copy / "core" / "runtime.py"  # training does not read it
        runtime.write_text(runtime.read_text() + "\n")
        assert offline._source_digest(copy) == digest
        trainer = copy / "nn" / "trainer.py"
        source = bytearray(trainer.read_bytes())
        source[len(source) // 2] ^= 1
        trainer.write_bytes(bytes(source))
        assert offline._source_digest(copy) not in (digest, None)
        (copy / "approx" / "npu_backend.py").unlink()
        assert offline._source_digest(copy) is None  # no store, not a guess

    @pytest.mark.parametrize("damage", ["truncated", "flipped", "wrong_shape"])
    def test_a_damaged_file_retrains_and_is_rewritten(self, store, trainings,
                                                      damage):
        app = get_application("fft")
        trained = prepare_backend(app, seed=0)
        (path,) = store.glob("*.npz")
        raw = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(raw[: len(raw) // 2])
        elif damage == "flipped":
            params = trained.network.get_flat_params().tobytes()
            at = raw.index(params) + len(params) // 2
            path.write_bytes(raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:])
        else:
            with np.load(path) as stored:
                arrays = dict(stored)
            arrays["params"] = arrays["params"][:-1]
            np.savez(path, **arrays)
        clear_cache()
        retrained = prepare_backend(app, seed=0)
        assert trainings == [("fft", True)] * 2
        assert_same_backend(trained, retrained, app)
        assert_same_backend(trained, offline._store_load(app, True, 0), app)

    def test_no_flipped_byte_loads_a_different_network(self, store):
        """Flipped flags, sizes, names or data are misses (zipfile and
        numpy raise six exception types for them); a flip that reads back
        is in a field that does not carry the arrays."""
        app = get_application("fft")
        trained = prepare_backend(app, seed=0)
        (path,) = store.glob("*.npz")
        raw = path.read_bytes()
        misses = 0
        for at in range(0, len(raw), 3):
            for bit in (0x01, 0x80):
                path.write_bytes(raw[:at] + bytes([raw[at] ^ bit])
                                 + raw[at + 1:])
                loaded = offline._store_load(app, True, 0)
                if loaded is None:
                    misses += 1
                    continue
                for a, b in ((trained.network.get_flat_params(),
                              loaded.network.get_flat_params()),
                             *zip(trained.input_scaler.state(),
                                  loaded.input_scaler.state()),
                             *zip(trained.output_scaler.state(),
                                  loaded.output_scaler.state())):
                    assert a.tobytes() == b.tobytes()
        assert misses > len(raw) // 3

    def test_an_unwritable_store_still_trains(self, tmp_path, monkeypatch,
                                              trainings):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setattr(offline, "STORE_DIR", blocker / "npu")
        monkeypatch.setattr(offline, "_BACKEND_CACHE", {})
        app = get_application("fft")
        backend = prepare_backend(app, seed=0)
        assert trainings == [("fft", True)]
        assert_same_backend(backend, prepare_backend(app, cache=False), app)
        assert os.listdir(tmp_path) == ["a-file"]

    def test_two_processes_storing_one_key_both_succeed(self, store, tmp_path):
        src = Path(offline.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        go = tmp_path / "go"
        ready = [tmp_path / f"ready{i}" for i in range(2)]
        racers = [subprocess.Popen(
            [sys.executable, "-c", _RACER, str(store), str(flag), str(go)],
            env=env, stdout=subprocess.PIPE, text=True) for flag in ready]
        deadline = time.monotonic() + 60
        while not all(flag.exists() for flag in ready):
            assert time.monotonic() < deadline, "a racer never got ready"
            time.sleep(0.01)
        go.touch()
        outputs = [racer.communicate(timeout=60)[0] for racer in racers]
        assert [racer.returncode for racer in racers] == [0, 0]
        assert outputs[0] == outputs[1]
        assert [p.suffix for p in store.iterdir()] == [".npz"]
        loaded = offline._store_load(get_application("fft"), True, 0)
        assert loaded.network.get_flat_params().tobytes().hex() == \
            outputs[0].strip()

    def test_cache_false_neither_reads_nor_writes(self, store, trainings):
        app = get_application("fft")
        prepare_backend(app, seed=0, cache=False)
        assert not store.exists()
        prepare_backend(app, seed=0)
        (path,) = store.glob("*.npz")
        stamp = path.stat().st_mtime_ns
        clear_cache()
        prepare_backend(app, seed=0, cache=False)
        assert trainings == [("fft", True)] * 3
        assert list(store.iterdir()) == [path]
        assert path.stat().st_mtime_ns == stamp


    @pytest.mark.parametrize("name", APPLICATION_NAMES)
    def test_a_warm_checker_is_the_fitted_one(self, store, fits, name):
        """Systems from an empty store and from a warm one score, flag and
        recover alike, bit for bit; the warm ones fit and collect nothing."""
        rows = np.atleast_2d(get_application(name).test_inputs(
            np.random.default_rng(3)))
        schemes = ("linearErrors", "treeErrors")
        cold = {scheme: prepare_system(name, scheme=scheme) for scheme in schemes}
        assert fits == ["collect", *schemes]
        assert len(list(store.glob(f"{name}-*Errors-*.npz"))) == 2
        clear_cache()
        warm = {scheme: prepare_system(name, scheme=scheme) for scheme in schemes}
        assert fits == ["collect", *schemes]
        for scheme in schemes:
            a, b = cold[scheme], warm[scheme]
            assert_same_checker(a.predictor, b.predictor,
                                a.backend.features(rows[:3000]))
            x, y = (system.run_invocation(rows[:512]) for system in (a, b))
            assert x.detection.recovery_bits.tobytes() == \
                y.detection.recovery_bits.tobytes()
            assert x.outputs.tobytes() == y.outputs.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(fitted_checkers(), st.integers(0, 2**16))
    def test_a_checker_round_trips_bit_for_bit(self, case, seed):
        checker, n_features = case
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "checker.npz"
            offline._store_save(path, checker.state())
            with np.load(path, allow_pickle=False) as stored:
                loaded = type(checker)().load_state(n_features, **stored)
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e300]
        candidates = np.concatenate([checker.coefficients(), specials])
        rows = np.random.default_rng(seed).choice(candidates,
                                                  size=(64, n_features))
        with np.errstate(all="ignore"):  # inf * 0 and overflow, alike
            assert_same_checker(checker, loaded, rows)

    @pytest.mark.parametrize("damage", [
        "truncated", "wrong_dtype", "feature_out_of_range", "too_deep",
        "missing_node", "trailing_node", "nan_threshold", "nan_value",
        "inf_weight"])
    def test_a_damaged_checker_is_refit_and_rewritten(self, store, fits,
                                                      damage):
        scheme = "linearErrors" if damage == "inf_weight" else "treeErrors"
        fitted = prepare_system("fft", scheme=scheme)
        path = offline._checker_path(fitted.app, scheme, 0)
        raw = path.read_bytes()
        with np.load(path) as stored:
            arrays = dict(stored)
        leaf = arrays.get("feature", np.zeros(0)) == -1
        if damage == "truncated":
            path.write_bytes(raw[: len(raw) // 2])
        else:
            if damage == "wrong_dtype":
                arrays["feature"] = arrays["feature"].astype(np.int32)
            elif damage == "feature_out_of_range":  # fft's network has 1 input
                arrays["feature"][~leaf] = 1
            elif damage == "too_deep":  # a well-formed left chain of depth 8
                arrays = {"feature": np.repeat(np.array([0, -1]), [8, 9]),
                          "threshold": np.zeros(17), "value": np.zeros(17)}
            elif damage == "missing_node":
                arrays = {k: v[:-1] for k, v in arrays.items()}
            elif damage == "trailing_node":
                arrays = {k: np.append(v, v[-1]) for k, v in arrays.items()}
            elif damage == "nan_threshold":
                arrays["threshold"][np.flatnonzero(~leaf)[-1]] = np.nan
            elif damage == "nan_value":
                arrays["value"][np.flatnonzero(leaf)[-1]] = np.nan
            else:
                arrays["weights"][0] = np.inf
            np.savez(path, **arrays)
        assert offline._checker_load(fitted.app, scheme, 0) is None
        clear_cache()
        refit = prepare_system("fft", scheme=scheme)
        assert fits == ["collect", scheme] * 2
        assert path.read_bytes() == raw
        rows = fitted.backend.features(
            fitted.app.test_inputs(np.random.default_rng(2))[:2000])
        assert_same_checker(fitted.predictor, refit.predictor, rows)

    def test_no_flipped_byte_loads_a_different_checker(self, store, fits):
        """A flip the store reads back is in a field that does not carry
        the arrays; every other flip is a miss, and every 16th miss (a fit
        is 40 ms) is shown to refit and rewrite."""
        fitted = prepare_system("fft")
        path = offline._checker_path(fitted.app, "treeErrors", 0)
        raw = path.read_bytes()
        rows = fitted.backend.features(
            fitted.app.test_inputs(np.random.default_rng(2))[:500])
        misses = 0
        for at in range(0, len(raw), 7):
            path.write_bytes(raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:])
            loaded = offline._checker_load(fitted.app, "treeErrors", 0)
            if loaded is not None:
                assert_same_checker(fitted.predictor, loaded, rows)
                continue
            misses += 1
            if misses % 16 == 1:
                refit = offline.prepare_checker(fitted.app, fitted.backend)
                assert path.read_bytes() == raw
                assert_same_checker(fitted.predictor, refit, rows)
        assert misses > len(raw) // 14
        assert fits == ["collect"] + ["treeErrors"] * (1 + (misses + 15) // 16)

    def test_a_changed_checker_source_changes_only_the_checker_digest(
            self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(offline._PACKAGE, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        network = offline._source_digest(copy)
        checker = offline._source_digest(copy, offline._CHECKER_SOURCES)
        assert network == offline._source_digest()
        assert checker == offline._source_digest(
            offline._PACKAGE, offline._CHECKER_SOURCES)
        tree = copy / "predictors" / "tree.py"
        source = bytearray(tree.read_bytes())
        source[len(source) // 2] ^= 1
        tree.write_bytes(bytes(source))
        assert offline._source_digest(copy) == network
        assert offline._source_digest(copy, offline._CHECKER_SOURCES) not in (
            checker, network, None)

    def test_cache_false_neither_reads_nor_writes_a_checker(self, store, fits):
        prepare_system("fft", cache=False)
        assert not store.exists()
        prepare_system("fft")
        (path,) = store.glob("fft-treeErrors-*.npz")
        stamp = path.stat().st_mtime_ns
        clear_cache()
        prepare_system("fft", cache=False)
        assert fits == ["collect", "treeErrors"] * 3
        assert sorted(store.iterdir()) == sorted(
            [path, offline._network_path(get_application("fft"), True, 0)])
        assert path.stat().st_mtime_ns == stamp


class TestPrepareSystem:
    def test_accepts_name_or_application(self):
        by_name = prepare_system("fft", scheme="EMA", seed=0)
        by_app = prepare_system(get_application("fft"), scheme="EMA", seed=0)
        assert by_name.app.name == by_app.app.name == "fft"

    def test_scheme_config_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            prepare_system(
                "fft", scheme="EMA", config=RumbaConfig(scheme="treeErrors")
            )

    def test_default_config_uses_scheme(self):
        system = prepare_system("fft", scheme="linearErrors", seed=0)
        assert system.config.scheme == "linearErrors"
        assert system.predictor.name == "linearErrors"

    @pytest.mark.parametrize(
        "scheme", ["Ideal", "Random", "Uniform", "EMA", "linearErrors",
                   "treeErrors"]
    )
    def test_all_schemes_preparable(self, scheme):
        system = prepare_system("fft", scheme=scheme, seed=0)
        assert system.predictor.name == scheme
