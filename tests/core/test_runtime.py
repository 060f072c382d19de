"""Integration-level tests for the end-to-end RumbaSystem."""

import numpy as np
import pytest

from repro.core import RumbaConfig, TunerMode, prepare_system, summarize
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def tree_system():
    return prepare_system("fft", scheme="treeErrors", seed=0)


@pytest.fixture(scope="module")
def fft_inputs():
    rng = np.random.default_rng(77)
    from repro.apps import get_application

    return get_application("fft").test_inputs(rng)


class TestRunInvocation:
    def test_record_fields_populated(self, tree_system, fft_inputs):
        record = tree_system.run_invocation(fft_inputs[:2000])
        assert record.outputs.shape == (2000, 2)
        assert record.measured_error is not None
        assert record.unchecked_error is not None
        assert 0.0 <= record.fix_fraction <= 1.0
        assert record.costs.energy_savings > 0

    def test_fixes_reduce_error(self, tree_system, fft_inputs):
        record = tree_system.run_invocation(fft_inputs[:2000])
        assert record.measured_error <= record.unchecked_error

    def test_toq_mode_approaches_target(self, fft_inputs):
        system = prepare_system(
            "fft",
            scheme="treeErrors",
            config=RumbaConfig(scheme="treeErrors", target_output_quality=0.9),
            seed=0,
        )
        record = system.run_invocation(fft_inputs[:3000])
        # The TOQ threshold targets per-element error <= 10%; the whole-
        # output error lands at or below the unchecked error and near target.
        assert record.measured_error < record.unchecked_error
        assert record.measured_error < 0.12

    def test_measure_quality_false_skips_measurement(self, tree_system, fft_inputs):
        record = tree_system.run_invocation(
            fft_inputs[:500], measure_quality=False
        )
        assert record.measured_error is None
        assert record.unchecked_error is None

    def test_empty_invocation_rejected(self, tree_system):
        with pytest.raises(ConfigurationError):
            tree_system.run_invocation(np.empty((0, 1)))

    def test_scheme_must_match_config(self):
        from repro.predictors import make_predictor
        from repro.core.runtime import RumbaSystem
        from repro.core.offline import prepare_backend
        from repro.apps import get_application

        app = get_application("fft")
        backend = prepare_backend(app, seed=0)
        with pytest.raises(ConfigurationError):
            RumbaSystem(
                app,
                backend,
                make_predictor("EMA"),
                config=RumbaConfig(scheme="treeErrors"),
            )

    def test_outputs_are_merged_exact_and_approx(self, fft_inputs):
        system = prepare_system("fft", scheme="Ideal", seed=0)
        x = fft_inputs[:1000]
        record = system.run_invocation(x)
        exact = system.app.exact(x)
        approx = system.backend(x)
        fixed = record.recovery.recovery_indices
        np.testing.assert_allclose(record.outputs[fixed], exact[fixed])
        untouched = np.setdiff1d(np.arange(1000), fixed)
        np.testing.assert_allclose(record.outputs[untouched], approx[untouched])


class TestRunStream:
    def test_energy_mode_tracks_budget(self, fft_inputs):
        config = RumbaConfig(
            scheme="treeErrors",
            mode=TunerMode.ENERGY,
            iteration_budget_fraction=0.15,
            initial_threshold=0.5,
            threshold_gain=1.3,
        )
        system = prepare_system("fft", scheme="treeErrors", config=config, seed=0)
        chunks = [fft_inputs[i * 500:(i + 1) * 500] for i in range(8)]
        records = system.run_stream(chunks)
        late = [r.fix_fraction for r in records[4:]]
        assert np.mean(late) == pytest.approx(0.15, abs=0.10)

    def test_quality_mode_fills_cpu(self, fft_inputs):
        config = RumbaConfig(
            scheme="treeErrors",
            mode=TunerMode.QUALITY,
            initial_threshold=10.0,  # start fixing nothing
            threshold_gain=1.5,
        )
        system = prepare_system("fft", scheme="treeErrors", config=config, seed=0)
        chunks = [fft_inputs[i * 400:(i + 1) * 400] for i in range(10)]
        records = system.run_stream(chunks)
        # The tuner lowers the threshold until the CPU is meaningfully busy.
        assert records[-1].fix_fraction > records[0].fix_fraction
        assert records[-1].pipeline.cpu_utilization > 0.3

    def test_summaries(self, fft_inputs):
        system = prepare_system("fft", scheme="treeErrors", seed=0)
        system.run_stream([fft_inputs[:300], fft_inputs[300:600]])
        summary = summarize(system.records, 0.1)
        assert summary.n == 2
        assert 0.0 <= summary.fix_fraction <= 1.0

    def test_summaries_require_records(self):
        system = prepare_system("fft", scheme="treeErrors", seed=0)
        system.records.clear()
        with pytest.raises(ConfigurationError):
            summarize(system.records, 0.1)


class TestSummarize:
    @pytest.fixture(scope="class")
    def stream(self, tree_system, fft_inputs):
        chunks = [fft_inputs[i * 250:(i + 1) * 250] for i in range(8)]
        return tree_system.clone_shard().run_stream(chunks)

    def test_record_order_moves_no_bit(self, stream):
        summary = summarize(stream, 0.1)
        assert summary.n == 8
        assert None not in (summary.measured_error, summary.unchecked_error,
                            summary.over_budget)
        rng = np.random.default_rng(5)
        for _ in range(5):
            shuffled = [stream[i] for i in rng.permutation(len(stream))]
            assert summarize(shuffled, 0.1) == summary

    def test_shares_follow_the_budget(self, stream):
        assert summarize(stream, 0.0).over_budget == 1.0
        assert summarize(stream, np.inf).over_budget == 0.0
        errors = [r.measured_error for r in stream]
        budget = float(np.median(errors))
        over = sum(e > budget for e in errors) / len(errors)
        assert summarize(stream, budget).over_budget == over

    def test_one_record_reads_its_gauges(self, tree_system, fft_inputs):
        from repro.observability import MetricsRegistry, Telemetry

        system = tree_system.clone_shard()
        registry = MetricsRegistry()
        system.attach_telemetry(
            Telemetry(app="fft", scheme="treeErrors", registry=registry))
        summary = summarize([system.run_invocation(fft_inputs[:500])], 0.1)

        def gauge(name):
            return registry.get(name).labels(
                app="fft", scheme="treeErrors").value

        assert summary.fix_fraction == gauge("rumba_recovered_fraction")
        assert summary.measured_error == gauge("rumba_measured_error")
        assert summary.kept_up == gauge("rumba_cpu_kept_up")

    def test_empty_input_raises(self):
        with pytest.raises(ConfigurationError, match="no invocations"):
            summarize([], 0.1)

    def test_an_unmeasured_record_leaves_the_errors_unknown(
            self, tree_system, stream, fft_inputs):
        unmeasured = tree_system.clone_shard().run_invocation(
            fft_inputs[:250], measure_quality=False)
        for records in ([unmeasured], [*stream, unmeasured]):
            summary = summarize(records, 0.1)
            assert summary.measured_error is None
            assert summary.unchecked_error is None
            assert summary.over_budget is None
            assert 0.0 <= summary.fix_fraction <= 1.0
            assert summary.energy_savings > 0


class TestConfigQueueRoundTrip:
    """The checker's configuration words (Fig. 4): the fitted coefficients
    reach the serving worker that runs the kernel, carried by the pickled
    system rather than a separate queue."""

    def test_checker_coefficients_survive_the_queue(self, tree_system):
        """The worker must receive the fitted coefficients themselves, not
        a placeholder of the right length."""
        import pickle

        received = pickle.loads(pickle.dumps(tree_system)).predictor.coefficients()
        assert received == tree_system.predictor.coefficients()
        assert any(value != 0.0 for value in received)

    def test_all_fitted_predictors_declare_matching_counts(self, fft_inputs):
        for scheme in ("linearErrors", "treeErrors", "EMA"):
            predictor = prepare_system("fft", scheme=scheme, seed=0).predictor
            coefficients = predictor.coefficients()
            assert len(coefficients) == predictor.coefficient_count()
            assert any(value != 0.0 for value in coefficients), scheme


class TestMaxRecords:
    def _capped_clone(self, system, max_records):
        from repro.core import RumbaSystem

        return RumbaSystem(
            app=system.app,
            backend=system.backend,
            predictor=system.predictor,
            config=system.config,
            max_records=max_records,
        )

    def test_ring_buffer_keeps_last_n(self, tree_system, fft_inputs):
        system = self._capped_clone(tree_system, 3)
        chunks = [fft_inputs[i * 200:(i + 1) * 200] for i in range(5)]
        records = system.run_stream(chunks)
        assert len(records) == 5  # run_stream still returns everything
        assert len(system.records) == 3
        assert list(system.records) == records[2:]
        assert system.total_invocations == 5

    def test_windowed_summaries_still_work(self, tree_system, fft_inputs):
        system = self._capped_clone(tree_system, 2)
        records = system.run_stream(
            [fft_inputs[:300], fft_inputs[300:600], fft_inputs[600:900]])
        window = summarize(system.records, 0.1)
        assert window.n == 2
        assert window == summarize(records[1:], 0.1)

    def test_lifetime_aggregates_via_registry(self, tree_system, fft_inputs):
        from repro.observability import MetricsRegistry, Telemetry

        system = self._capped_clone(tree_system, 2)
        registry = MetricsRegistry()
        system.attach_telemetry(
            Telemetry(app="fft", scheme="treeErrors", registry=registry)
        )
        for i in range(4):
            system.run_invocation(fft_inputs[i * 200:(i + 1) * 200])
        child = registry.get("rumba_invocations_total").labels(
            app="fft", scheme="treeErrors"
        )
        assert child.value == 4  # lifetime count outlives the ring buffer
        assert len(system.records) == 2

    def test_bad_max_records_rejected(self, tree_system):
        with pytest.raises(ConfigurationError):
            self._capped_clone(tree_system, 0)


class TestSplitPhaseInvocation:
    """begin_invocation/complete_invocation must equal run_invocation —
    the serving layer depends on the split producing identical records."""

    def test_split_equals_monolithic(self, tree_system, fft_inputs):
        x = fft_inputs[:1500]
        a = tree_system.clone_shard()
        b = tree_system.clone_shard()
        whole = a.run_invocation(x)
        pending = b.begin_invocation(x)
        split = b.complete_invocation(pending)
        assert split.measured_error == pytest.approx(whole.measured_error)
        assert split.fix_fraction == pytest.approx(whole.fix_fraction)
        assert split.detection.fire_fraction == pytest.approx(
            whole.detection.fire_fraction
        )
        np.testing.assert_allclose(split.outputs, whole.outputs)

    def test_pending_exposes_accelerator_half(self, tree_system, fft_inputs):
        shard = tree_system.clone_shard()
        pending = shard.begin_invocation(fft_inputs[:400])
        assert pending.n_elements == 400
        assert pending.approx.shape[0] == 400
        # Detection has already happened on the accelerator side...
        assert 0.0 <= pending.detection.fire_fraction <= 1.0
        # ...but nothing was recorded yet: recovery is the CPU's half.
        assert shard.total_invocations == 0
        record = shard.complete_invocation(pending)
        assert shard.total_invocations == 1
        assert record.recovery.n_recovered == int(np.sum(pending.recovery_bits))

    def test_begin_rejects_empty(self, tree_system):
        with pytest.raises(ConfigurationError):
            tree_system.clone_shard().begin_invocation(np.empty((0, 1)))


class TestCloneShard:
    def test_clone_shares_trained_artifacts(self, fft_inputs):
        """Each scheme's clone rule: a predictor without online state is
        shared; EMA and Random are copies in the state a deep copy plus
        ``reset_state()`` of the prototype's predictor has."""
        import copy

        for scheme in ("treeErrors", "linearErrors", "Uniform", "Ideal",
                       "EMA", "Random"):
            prototype = prepare_system("fft", scheme=scheme, seed=0)
            prototype.run_invocation(fft_inputs[:64])  # online state moves
            shard = prototype.clone_shard()
            assert shard.app is prototype.app
            assert shard.backend is prototype.backend
            assert shard.tuner.threshold == prototype.tuner.threshold
            if scheme in ("EMA", "Random"):
                assert shard.predictor is not prototype.predictor
                expected = copy.deepcopy(prototype.predictor)
                expected.reset_state()
                assert vars(shard.predictor) == vars(expected), scheme
            else:
                assert shard.predictor is prototype.predictor, scheme

    def test_shards_score_one_shared_tree_concurrently(self):
        """Three shards descend one tree at once (blackscholes: six
        columns, so each thread's descent runs on its own scratch); every
        score equals the serial one bit for bit."""
        import sys
        import threading

        prototype = prepare_system("blackscholes", scheme="treeErrors", seed=0)
        shards = [prototype.clone_shard() for _ in range(3)]
        assert all(s.predictor is prototype.predictor for s in shards)
        pool = np.atleast_2d(
            prototype.app.test_inputs(np.random.default_rng(5)))
        features = [prototype.backend.features(pool[lo:lo + n])
                    for lo, n in ((0, 512), (600, 300), (1000, 64))]
        assert features[0].shape[1] > 1
        want = [prototype.predictor.scores(features=f) for f in features]
        mismatches, start = [], threading.Barrier(len(shards))

        def score(which):
            start.wait(timeout=10)
            detection = shards[which].detection
            for _ in range(300):
                got = detection.detect_into(features=features[which]).scores
                if got.tobytes() != want[which].tobytes():
                    mismatches.append(which)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=score, args=(i,))
                       for i in range(len(shards))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_clone_state_is_independent(self, tree_system, fft_inputs):
        shard = tree_system.clone_shard()
        before = tree_system.total_invocations
        threshold_before = tree_system.tuner.threshold
        shard.run_invocation(fft_inputs[:800])
        shard.tuner.threshold *= 2.0
        assert tree_system.total_invocations == before
        assert tree_system.tuner.threshold == threshold_before
        assert shard.records is not tree_system.records

    def test_clone_respects_max_records(self, tree_system, fft_inputs):
        shard = tree_system.clone_shard(max_records=2)
        for i in range(4):
            shard.run_invocation(fft_inputs[i * 200:(i + 1) * 200])
        assert len(shard.records) == 2
        assert shard.total_invocations == 4

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_tuner_history_is_bounded_by_the_record_window(
        self, tree_system, fft_inputs, backend
    ):
        """A serving shard's threshold history must not outgrow its
        records: it grew one float per invocation forever (5,001 entries
        beside 64 records).  Thread shards are cloned from the prototype,
        process shards from its unpickled copy in the worker."""
        import pickle

        prototype = tree_system
        if backend == "process":
            prototype = pickle.loads(pickle.dumps(tree_system))
        shard = prototype.clone_shard(max_records=64)
        x = np.atleast_2d(fft_inputs)[:8]
        for _ in range(5000):
            shard.run_invocation(x, measure_quality=False)
        assert shard.total_invocations == 5000
        assert len(shard.records) == 64
        assert len(shard.tuner.history) == 64

    def test_tuner_history_ends_at_the_threshold_after_wraparound(
        self, tree_system
    ):
        shard = tree_system.clone_shard(max_records=4)
        assert list(shard.tuner.history) == [shard.tuner.threshold]
        from repro.core.tuner import InvocationFeedback

        move = InvocationFeedback(fix_fraction=0.5)
        for _ in range(9):
            shard.tuner.update(move)
            assert shard.tuner.history[-1] == shard.tuner.threshold
        assert len(shard.tuner.history) == 4
        # Experimenters' systems keep every move.
        unbounded = tree_system.clone_shard()
        for _ in range(9):
            unbounded.tuner.update(move)
        assert len(unbounded.tuner.history) == 10


class TestApplyBackpressure:
    """The serving layer's backpressure level, passed per invocation."""

    def test_roundtrip_restores_threshold(self, tree_system, fft_inputs):
        shard = tree_system.clone_shard()
        start = shard.tuner.threshold
        # The level is read at begin_invocation — that's the handoff point.
        pending = shard.begin_invocation(fft_inputs[:200], level=2)
        assert pending.detection.threshold == pytest.approx(start * 2.25)
        record = shard.complete_invocation(pending)
        assert record.level == 2
        assert record.tuned_threshold == pytest.approx(start * 2.25)
        assert shard.tuner.threshold == start
        # Back at level 0 the threshold is the tuner's own, bit for bit.
        record = shard.run_invocation(fft_inputs[200:400])
        assert record.detection.threshold == start
        assert record.tuned_threshold == start

    def test_zero_direction_reads_threshold(self, tree_system, fft_inputs):
        shard = tree_system.clone_shard()
        record = shard.run_invocation(fft_inputs[:200], level=0)
        assert record.detection.threshold == shard.tuner.threshold
        assert record.level == 0


class TestEnsembleRuntime:
    """RumbaSystem with the routed multi-approximator ensemble."""

    @pytest.fixture(scope="class")
    def ens_system(self):
        from repro.approx.ensemble import EnsembleSpec

        return prepare_system(
            "fft", scheme="treeErrors", seed=0, ensemble=EnsembleSpec()
        )

    def test_record_carries_choices(self, ens_system, fft_inputs):
        shard = ens_system.clone_shard()
        record = shard.run_invocation(fft_inputs[:500])
        assert record.choices is not None
        assert record.choices.shape == (500,)
        assert record.choices.dtype == np.int8
        assert record.choices.min() >= 0
        assert record.choices.max() < len(shard.ensemble.members)
        assert int(shard.ensemble.rows_routed.sum()) == 500

    def test_a_fresh_clone_rederives_the_run(self, ens_system, fft_inputs):
        """Replay's premise: a fresh ``clone_shard()`` fed the rows a
        prototype served, at the same level, routes them to the same
        members and computes byte-identical outputs, so replay re-derives
        the journaled choices rather than forcing them."""
        prototype = ens_system.clone_shard()
        x = fft_inputs[:600]
        runs = []
        for level in (0, 2):
            fresh = prototype.clone_shard()
            recorded = prototype.run_invocation(x, level=level)
            replayed = fresh.run_invocation(x, level=level)
            np.testing.assert_array_equal(replayed.choices, recorded.choices)
            assert replayed.outputs.tobytes() == recorded.outputs.tobytes()
            runs.append(recorded.choices)
        assert len(np.unique(np.concatenate(runs))) >= 2
        assert (runs[0] != runs[1]).any(), "the level must reach the router"

    def test_routing_is_stationary(self, ens_system, fft_inputs):
        """Routing depends only on (features, threshold, degradation
        level): after a stream with recoveries, a shard routes a probe
        exactly like a fresh clone at every threshold and level."""
        shard = ens_system.clone_shard()
        recovered = 0
        for i in range(4):
            record = shard.run_invocation(
                fft_inputs[i * 400:(i + 1) * 400]
            )
            recovered += record.recovery.n_recovered
        assert recovered > 0, "fixture needs a config that recovers rows"
        fresh = ens_system.clone_shard()
        probe = fresh.ensemble.router_features(fft_inputs[1600:3600])
        for level in range(3):
            for threshold in np.geomspace(1e-3, 1.0, 25):
                np.testing.assert_array_equal(
                    shard.ensemble.router.route(probe, threshold, level),
                    fresh.ensemble.router.route(probe, threshold, level),
                )

    def test_degradation_hook_reaches_router(self, ens_system, fft_inputs):
        """The invocation's level reaches the router with the call."""
        shard = ens_system.clone_shard()
        x = fft_inputs[:400]
        record = shard.run_invocation(x, level=2)
        np.testing.assert_array_equal(
            record.choices,
            shard.ensemble.router.route(x, shard.tuner.threshold_at(2), 2),
        )

    def test_clone_shard_gets_private_ensemble(self, ens_system):
        shard = ens_system.clone_shard()
        assert shard.ensemble is not ens_system.ensemble
        assert shard.backend is shard.ensemble.reference
        # The reference weights are still the shared trained artifact.
        assert shard.backend is ens_system.ensemble.reference


class TestPickleRoundTrip:
    """The process serving backend ships systems across process
    boundaries; a pickled system must behave identically when restored."""

    def test_system_survives_pickle(self, tree_system, fft_inputs):
        import pickle

        restored = pickle.loads(pickle.dumps(tree_system))
        x = np.atleast_2d(fft_inputs)[:256]
        a = tree_system.clone_shard().run_invocation(x)
        b = restored.clone_shard().run_invocation(x)
        assert a.outputs.tobytes() == b.outputs.tobytes()
        assert a.detection.n_fired == b.detection.n_fired
        assert a.fix_fraction == b.fix_fraction

    def test_restored_system_drops_telemetry(self, tree_system):
        import pickle

        from repro.observability import MetricsRegistry, Telemetry

        shard = tree_system.clone_shard()
        shard.attach_telemetry(Telemetry(registry=MetricsRegistry()))
        restored = pickle.loads(pickle.dumps(shard))
        # Telemetry binds to the origin process's registry: stripped.
        assert restored.telemetry is None
        assert shard.telemetry is not None

    def test_registry_application_pickles_by_name(self):
        import pickle

        from repro.apps import get_application

        app = get_application("fft")
        restored = pickle.loads(pickle.dumps(app))
        assert restored.name == app.name
        x = np.linspace(0.1, 1.0, 32).reshape(-1, 1)
        assert np.array_equal(restored.exact(x), app.exact(x))

    def test_hand_built_application_still_fails_loudly(self):
        import pickle

        from repro.apps import get_application

        app = get_application("fft")
        app._registry_backed = False  # as if constructed outside the registry
        with pytest.raises(Exception):
            pickle.dumps(app)

    def test_shared_app_reference_restored_once(self, tree_system):
        import pickle

        restored = pickle.loads(pickle.dumps(tree_system))
        assert restored.recovery.exact_kernel.__self__ is restored.app
