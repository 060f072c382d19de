"""Unit tests for the EMA output-based detector."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.predictors.ema import EMAPredictor


class TestEMAPredictor:
    def test_alpha_formula(self):
        """alpha = 2 / (1 + N) from the paper."""
        assert EMAPredictor(history=15).alpha == pytest.approx(2.0 / 16.0)
        assert EMAPredictor(history=1).alpha == pytest.approx(1.0)

    def test_smooth_stream_scores_low(self):
        outputs = np.linspace(0, 1, 100).reshape(-1, 1)
        scores = EMAPredictor(history=9).scores(approx_outputs=outputs)
        assert scores.max() < 0.1

    def test_spike_scores_high(self):
        outputs = np.zeros((50, 1))
        outputs[25] = 10.0
        scores = EMAPredictor(history=9).scores(approx_outputs=outputs)
        assert np.argmax(scores) == 25
        assert scores[25] > 5.0

    def test_needs_outputs(self):
        with pytest.raises(ConfigurationError, match="output-based"):
            EMAPredictor().scores(features=np.ones((5, 2)))

    def test_no_training_needed(self):
        predictor = EMAPredictor()
        assert predictor.is_fitted
        assert not predictor.needs_fit

    def test_multi_output_reduced(self):
        outputs = np.zeros((10, 3))
        outputs[5] = [3.0, 3.0, 3.0]
        scores = EMAPredictor(history=9).scores(approx_outputs=outputs)
        assert np.argmax(scores) == 5

    def test_first_element_scores_zero(self):
        outputs = np.array([[7.0], [7.0]])
        scores = EMAPredictor().scores(approx_outputs=outputs)
        assert scores[0] == 0.0  # EMA seeds on the first element

    def test_invalid_history(self):
        with pytest.raises(ConfigurationError):
            EMAPredictor(history=0)

    def test_single_coefficient(self):
        assert EMAPredictor().coefficient_count() == 1

    def test_empty_stream(self):
        scores = EMAPredictor().scores(approx_outputs=np.empty((0, 1)))
        assert scores.size == 0


class TestEMAStateAcrossInvocations:
    def test_state_carries_across_invocations(self):
        """The EMA is an *online* filter (paper Eq. 2): splitting a stream
        across two invocations must score identically to one invocation —
        the average is not reset at invocation boundaries."""
        outputs = np.linspace(0.0, 4.0, 40).reshape(-1, 1)
        whole = EMAPredictor(history=9).scores(approx_outputs=outputs)
        split = EMAPredictor(history=9)
        first = split.scores(approx_outputs=outputs[:25])
        second = split.scores(approx_outputs=outputs[25:])
        np.testing.assert_allclose(
            np.concatenate([first, second]), whole
        )

    def test_second_invocation_first_element_not_reseeded(self):
        # The resetting bug: element 0 of every invocation scored 0.0
        # (fresh seed), hiding a spike that lands on an invocation
        # boundary.  With carried state it scores against the prior EMA.
        predictor = EMAPredictor(history=9)
        predictor.scores(approx_outputs=np.zeros((20, 1)))
        scores = predictor.scores(approx_outputs=np.array([[10.0]]))
        assert scores[0] == pytest.approx(10.0)

    def test_reset_state_restores_fresh_seeding(self):
        predictor = EMAPredictor(history=9)
        predictor.scores(approx_outputs=np.full((10, 1), 100.0))
        predictor.reset_state()
        scores = predictor.scores(approx_outputs=np.array([[0.0], [0.0]]))
        assert scores[0] == 0.0  # seeded afresh, not vs. the old EMA

    def test_non_finite_values_do_not_poison_state(self):
        predictor = EMAPredictor(history=9)
        outputs = np.array([[1.0], [np.nan], [1.0], [1.0]])
        scores = predictor.scores(approx_outputs=outputs)
        assert np.isnan(scores[1])  # the NaN element itself always fires
        assert np.isfinite(scores[2]) and np.isfinite(scores[3])
        # State stayed finite: the next invocation scores normally.
        follow_up = predictor.scores(approx_outputs=np.array([[1.0]]))
        assert follow_up[0] == pytest.approx(0.0)

    def test_clone_shard_resets_predictor_state(self):
        from repro.core import prepare_system
        prototype = prepare_system("fft", scheme="EMA", seed=0)
        rng = np.random.default_rng(3)
        inputs = np.atleast_2d(prototype.app.test_inputs(rng))[:64]
        prototype.run_invocation(inputs)
        assert prototype.predictor._ema is not None
        shard = prototype.clone_shard()
        # Shards start independent: no EMA state inherited from the
        # prototype's (or a sibling's) output history.
        assert shard.predictor._ema is None
