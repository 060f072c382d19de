"""Unit tests for offline predictor training (the second trainer of Fig. 4)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.predictors import (
    SCHEME_NAMES,
    collect_training_data,
    make_predictor,
    train_predictor,
)
from repro.predictors.ema import EMAPredictor
from repro.predictors.linear import LinearErrorPredictor, LinearValuePredictor
from repro.predictors.oracle import OraclePredictor
from repro.predictors.tree import DecisionTreeErrorPredictor


class TestCollectTrainingData:
    def test_shapes_consistent(self, fft_app, fft_backend, fft_training_data):
        data = fft_training_data
        n = data.features.shape[0]
        assert data.approx_outputs.shape[0] == n
        assert data.exact_outputs.shape[0] == n
        assert data.errors.shape == (n,)

    def test_errors_match_app_metric(self, fft_app, fft_training_data):
        data = fft_training_data
        recomputed = fft_app.element_errors(data.approx_outputs, data.exact_outputs)
        np.testing.assert_allclose(data.errors, recomputed)

    def test_cap_respected(self, fft_app, fft_backend):
        data = collect_training_data(fft_app, fft_backend, seed=2, n_cap=100)
        assert data.features.shape[0] == 100


class TestMakePredictor:
    @pytest.mark.parametrize(
        "scheme,cls",
        [
            ("Ideal", OraclePredictor),
            ("EMA", EMAPredictor),
            ("linearErrors", LinearErrorPredictor),
            ("treeErrors", DecisionTreeErrorPredictor),
            ("linearValues", LinearValuePredictor),
        ],
    )
    def test_factory_types(self, scheme, cls):
        assert isinstance(make_predictor(scheme), cls)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            make_predictor("psychic")


class TestTrainPredictor:
    def test_all_schemes_trainable(self, fft_training_data):
        for scheme in SCHEME_NAMES:
            assert train_predictor(scheme, fft_training_data).is_fitted

    def test_evp_trains_on_exact_outputs(self, fft_training_data):
        predictor = train_predictor("linearValues", fft_training_data)
        scores = predictor.scores(
            features=fft_training_data.features,
            approx_outputs=fft_training_data.approx_outputs,
        )
        assert scores.shape == (fft_training_data.features.shape[0],)

    def test_tree_checker_correlates_with_errors(self, fft_training_data):
        """Sanity: the tree checker tracks true errors on fft.

        (The linear checker is benchmark-dependent — fft's error profile is
        non-monotone in its single input, so a linear model carries little
        signal there; Sec. 5.1 makes the same observation.)"""
        data = fft_training_data
        predictor = train_predictor("treeErrors", data)
        scores = predictor.scores(features=data.features)
        correlation = np.corrcoef(scores, data.errors)[0, 1]
        assert correlation > 0.5
