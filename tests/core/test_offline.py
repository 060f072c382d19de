"""Unit tests for offline preparation, its cache and its on-disk store."""

import dataclasses
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps import get_application
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


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An empty on-disk store, and empty in-process caches before it."""
    monkeypatch.setattr(offline, "STORE_DIR", tmp_path / "npu")
    monkeypatch.setattr(offline, "_BACKEND_CACHE", {})
    monkeypatch.setattr(offline, "_ENSEMBLE_CACHE", {})
    return tmp_path / "npu"


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
        a, _ = prepare_backend(app, seed=0)
        b, _ = prepare_backend(app, seed=0)
        assert a is b

    def test_cache_keyed_by_seed_and_topology(self):
        app = get_application("fft")
        a, _ = prepare_backend(app, seed=0)
        b, _ = prepare_backend(app, use_rumba_topology=False, seed=0)
        assert a is not b
        assert a.topology != b.topology

    def test_cache_bypass(self):
        app = get_application("fft")
        a, _ = prepare_backend(app, seed=0)
        b, _ = prepare_backend(app, seed=0, cache=False)
        assert a is not b

    def test_an_app_that_only_shares_a_registry_name_trains(self):
        app = get_application("fft")
        registry, _ = prepare_backend(app, seed=0)
        wider = dataclasses.replace(
            app, rumba_topology=Topology.parse("1->4->2"))
        backend, _ = prepare_backend(wider, seed=0)
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
backend, _ = offline.prepare_backend(get_application("fft"))
print(backend.network.get_flat_params().tobytes().hex())
"""


class TestStore:
    @pytest.mark.parametrize("rumba", [True, False])
    @pytest.mark.parametrize("name", ["fft", "jmeint"])
    def test_a_warm_load_is_the_trained_backend(self, store, trainings,
                                                name, rumba):
        app = get_application(name)
        cold, _ = prepare_backend(app, rumba, seed=0)
        assert len(list(store.glob("*.npz"))) == 1
        clear_cache()
        warm, _ = prepare_backend(app, rumba, seed=0)
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
        trained, _ = prepare_backend(app, seed=0)
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
        retrained, _ = prepare_backend(app, seed=0)
        assert trainings == [("fft", True)] * 2
        assert_same_backend(trained, retrained, app)
        assert_same_backend(trained, offline._store_load(app, True, 0), app)

    def test_no_flipped_byte_loads_a_different_network(self, store):
        """Flipped flags, sizes, names or data are misses (zipfile and
        numpy raise six exception types for them); a flip that reads back
        is in a field that does not carry the arrays."""
        app = get_application("fft")
        trained, _ = prepare_backend(app, seed=0)
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
        backend, _ = prepare_backend(app, seed=0)
        assert trainings == [("fft", True)]
        assert_same_backend(backend, prepare_backend(app, cache=False)[0], app)
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
