"""Tests for the shared benchmark-evaluation material."""

import numpy as np
import pytest

from repro.eval.schemes import evaluate_benchmark
from repro.predictors.training import SCHEME_NAMES


class TestEvaluateBenchmark:
    def test_all_schemes_scored(self, ik2j_evaluation):
        ev = ik2j_evaluation
        assert set(ev.scores) == set(SCHEME_NAMES)
        for scores in ev.scores.values():
            assert scores.shape == (ev.n_elements,)
            assert np.all(np.isfinite(scores))

    def test_errors_match_outputs(self, ik2j_evaluation):
        ev = ik2j_evaluation
        recomputed = ev.app.element_errors(ev.approx, ev.exact)
        np.testing.assert_allclose(ev.errors, recomputed)

    def test_unchecked_error_is_mean_element_error(self, ik2j_evaluation):
        """For every Table 1 metric the app error == mean element error,
        which is what the O(n log n) sweep machinery relies on."""
        ev = ik2j_evaluation
        assert ev.unchecked_error == pytest.approx(float(ev.errors.mean()))

    def test_ideal_scores_are_errors(self, ik2j_evaluation):
        ev = ik2j_evaluation
        np.testing.assert_array_equal(ev.scores["Ideal"], ev.errors)

    def test_npu_backend_uses_bigger_topology(self, ik2j_evaluation):
        ev = ik2j_evaluation
        assert ev.npu_backend.topology == ev.app.npu_topology
        assert ev.backend.topology == ev.app.rumba_topology

    def test_npu_more_accurate_than_rumba_accelerator(self, ik2j_evaluation):
        ev = ik2j_evaluation
        assert ev.npu_unchecked_error < ev.unchecked_error

    def test_test_cap_respected(self, ik2j_evaluation):
        assert ik2j_evaluation.n_elements <= 4000

    def test_cache_returns_same_object(self):
        a = evaluate_benchmark("fft", seed=0, n_test_cap=4000)
        b = evaluate_benchmark("fft", seed=0, n_test_cap=4000)
        assert a is b

    def test_backends_come_from_the_serving_cache(self, monkeypatch,
                                                  tmp_path):
        """A process that serves and evaluates one app trains it once per
        topology: ``evaluate_benchmark`` takes both backends from
        ``prepare_backend``'s cache (and the checker data from
        ``checker_data``'s), where ``prepare_system`` left the
        Rumba-topology one — and they are what it used to train for
        itself, weight for weight."""
        from repro.apps import get_application
        from repro.core import offline

        seed = 7  # a key no other test has put in either cache
        trained = []
        train = offline.train_npu_backend

        def counting(app, use_rumba_topology, seed):
            trained.append(use_rumba_topology)
            return train(app, use_rumba_topology=use_rumba_topology,
                         seed=seed)

        monkeypatch.setattr(offline, "train_npu_backend", counting)
        monkeypatch.setattr(offline, "STORE_DIR", tmp_path / "npu")
        system = offline.prepare_system("fft", seed=seed)
        ev = evaluate_benchmark("fft", seed=seed, n_test_cap=2000)
        assert trained == [True, False]  # two trainings, not three
        assert ev.backend is system.backend
        app = get_application("fft")
        for backend, rumba in ((ev.backend, True), (ev.npu_backend, False)):
            fresh, _ = train(app, use_rumba_topology=rumba,
                             seed=offline.streams(seed).accelerator)
            np.testing.assert_array_equal(
                backend.network.get_flat_params(),
                fresh.network.get_flat_params(),
            )

    def test_a_warm_store_collects_no_checker_data(self, monkeypatch,
                                                   tmp_path):
        """On an empty store one collection serves both fitted schemes
        (the unchecked network's data is never collected); warm, the
        checkers are read back and nothing is collected."""
        from repro.core import offline
        from repro.eval import schemes

        calls = []
        collect = offline.collect_training_data

        def counting(app, backend, seed=1):
            calls.append((app.name, backend.topology))
            return collect(app, backend, seed=seed)

        monkeypatch.setattr(offline, "collect_training_data", counting)
        monkeypatch.setattr(offline, "STORE_DIR", tmp_path / "npu")
        monkeypatch.setattr(offline, "_BACKEND_CACHE", {})
        monkeypatch.setattr(offline, "_DATA_CACHE", {})
        monkeypatch.setattr(schemes, "_EVAL_CACHE", {})
        cold = evaluate_benchmark("sobel")
        sobel = cold.app
        assert calls == [("sobel", sobel.rumba_topology)]
        offline.clear_cache()
        schemes.clear_evaluation_cache()
        warm = evaluate_benchmark("sobel")
        assert calls == [("sobel", sobel.rumba_topology)]
        for scheme in SCHEME_NAMES:
            assert cold.scores[scheme].tobytes() == \
                warm.scores[scheme].tobytes()
