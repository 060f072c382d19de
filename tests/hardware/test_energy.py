"""Unit and property tests for the CPU energy/timing model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hardware.energy import EnergyModel, InstructionMix

counts = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
_COUNTS = ("int_ops", "fp_ops", "loads", "stores", "branches",
           "transcendentals")
mixes = st.builds(InstructionMix, **{name: counts for name in _COUNTS})


class TestInstructionMix:
    def test_total_expands_transcendentals(self):
        mix = InstructionMix(int_ops=10, transcendentals=2)
        assert mix.total_instructions == 10 + 2 * EnergyModel.TRANSCENDENTAL_EXPANSION

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            InstructionMix(int_ops=-1)

    @settings(max_examples=50, deadline=None)
    @given(mixes, st.floats(min_value=0.0, max_value=10.0))
    def test_scaling_is_linear_in_energy(self, mix, factor):
        model = EnergyModel()
        scaled = model.iteration_energy_pj(InstructionMix(**{
            name: getattr(mix, name) * factor for name in _COUNTS
        }))
        assert scaled == pytest.approx(factor * model.iteration_energy_pj(mix),
                                       rel=1e-9, abs=1e-9)


class TestEnergyModel:
    def test_empty_mix_is_free(self):
        model = EnergyModel()
        assert model.iteration_energy_pj(InstructionMix()) == 0.0
        assert model.iteration_cycles(InstructionMix()) == 0.0

    def test_fp_costs_more_than_int(self):
        model = EnergyModel()
        fp = model.iteration_energy_pj(InstructionMix(fp_ops=100))
        integer = model.iteration_energy_pj(InstructionMix(int_ops=100))
        assert fp > integer

    def test_transcendental_dominates_timing(self):
        model = EnergyModel()
        plain = model.iteration_cycles(InstructionMix(fp_ops=10))
        transc = model.iteration_cycles(InstructionMix(transcendentals=10))
        assert transc > 10 * plain

    def test_effective_ipc_caps_throughput(self):
        fast = EnergyModel(effective_ipc=4.0)
        slow = EnergyModel(effective_ipc=1.0)
        mix = InstructionMix(int_ops=1)  # tiny so issue bound dominates
        mix = InstructionMix(int_ops=0.5, loads=0.1)
        assert slow.iteration_cycles(mix) > fast.iteration_cycles(mix)

    def test_effective_ipc_never_exceeds_issue_width(self):
        model = EnergyModel(effective_ipc=100.0)
        assert model.effective_ipc == model.params.issue_width

    def test_lower_hit_ratio_costs_more(self):
        mix = InstructionMix(loads=100)
        good = EnergyModel(l1_hit_ratio=0.99)
        bad = EnergyModel(l1_hit_ratio=0.5)
        assert bad.iteration_energy_pj(mix) > good.iteration_energy_pj(mix)
        assert bad.iteration_cycles(mix) > good.iteration_cycles(mix)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(l1_hit_ratio=1.5)
        with pytest.raises(ConfigurationError):
            EnergyModel(branch_mispredict_ratio=-0.1)
        with pytest.raises(ConfigurationError):
            EnergyModel(effective_ipc=0.0)

    @settings(max_examples=50, deadline=None)
    @given(mixes)
    def test_energy_and_cycles_nonnegative(self, mix):
        model = EnergyModel()
        assert model.iteration_energy_pj(mix) >= 0.0
        assert model.iteration_cycles(mix) >= 0.0

    @settings(max_examples=50, deadline=None)
    @given(mixes, mixes)
    def test_energy_additive_over_mixes(self, a, b):
        model = EnergyModel()
        combined = model.iteration_energy_pj(InstructionMix(**{
            name: getattr(a, name) + getattr(b, name) for name in _COUNTS
        }))
        separate = model.iteration_energy_pj(a) + model.iteration_energy_pj(b)
        assert combined == pytest.approx(separate, rel=1e-9, abs=1e-6)
