"""Unit tests for RumbaConfig."""

import pytest

from repro.core.config import RumbaConfig, TunerMode
from repro.errors import ConfigurationError


class TestRumbaConfig:
    def test_defaults_match_paper(self):
        config = RumbaConfig()
        assert config.scheme == "treeErrors"
        assert config.mode == TunerMode.TOQ
        assert config.target_output_quality == 0.90
        assert config.detector_placement == 2  # the paper's choice

    def test_target_output_error(self):
        config = RumbaConfig(target_output_quality=0.95)
        assert config.target_output_error == pytest.approx(0.05)

    def test_quality_bounds(self):
        with pytest.raises(ConfigurationError):
            RumbaConfig(target_output_quality=0.0)
        with pytest.raises(ConfigurationError):
            RumbaConfig(target_output_quality=1.5)

    def test_budget_bounds(self):
        with pytest.raises(ConfigurationError):
            RumbaConfig(iteration_budget_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            RumbaConfig(iteration_budget_fraction=1.1)

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            RumbaConfig(initial_threshold=-1.0)
        with pytest.raises(ConfigurationError):
            RumbaConfig(threshold_gain=1.0)

    def test_placement_validation(self):
        with pytest.raises(ConfigurationError):
            RumbaConfig(detector_placement=3)
        assert RumbaConfig(detector_placement=1).detector_placement == 1

    def test_modes_enumerated(self):
        assert {m.value for m in TunerMode} == {"toq", "energy", "quality"}
