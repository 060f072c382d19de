"""Unit tests for the NPU accelerator cost model."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.hardware.npu import NPUConfig, NPUModel
from repro.nn.mlp import Topology


class TestNPUConfig:
    def test_defaults_are_8_pes(self):
        assert NPUConfig().n_pes == 8

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            NPUConfig(n_pes=0)
        with pytest.raises(ConfigurationError):
            NPUConfig(mac_energy_pj=-1.0)
        with pytest.raises(ConfigurationError):
            NPUConfig(queue_words_per_cycle=0.0)


class TestNPUModel:
    def test_cycles_structure(self):
        model = NPUModel()
        topo = Topology.parse("9->8->1")
        cfg = model.config
        expected = (
            math.ceil(72 / 8) + math.ceil(8 / 8)   # MAC issue
            + 9                                     # activations
            + 10 / cfg.queue_words_per_cycle        # queue words
            + cfg.invocation_overhead_cycles
        )
        assert model.invocation_cycles(topo) == pytest.approx(expected)

    def test_energy_structure(self):
        model = NPUModel()
        topo = Topology.parse("2->2->2")
        cfg = model.config
        expected = (
            topo.n_multiply_adds * cfg.mac_energy_pj
            + topo.n_neurons * cfg.activation_energy_pj
            + 4 * cfg.queue_word_energy_pj
            + cfg.invocation_overhead_pj
        )
        assert model.invocation_energy_pj(topo) == pytest.approx(expected)

    def test_bigger_network_costs_more(self):
        model = NPUModel()
        small = Topology.parse("2->2->2")
        big = Topology.parse("18->32->8->2")
        assert model.invocation_cycles(big) > model.invocation_cycles(small)
        assert model.invocation_energy_pj(big) > model.invocation_energy_pj(small)

    def test_more_pes_is_faster_not_cheaper(self):
        topo = Topology.parse("64->16->64")
        few = NPUModel(NPUConfig(n_pes=2))
        many = NPUModel(NPUConfig(n_pes=16))
        assert many.invocation_cycles(topo) < few.invocation_cycles(topo)
        assert many.invocation_energy_pj(topo) == pytest.approx(
            few.invocation_energy_pj(topo)
        )

    def test_table1_topologies_all_costed(self):
        model = NPUModel()
        for spec in (
            "3->8->8->1", "6->8->8->1", "1->1->2", "1->4->4->2", "2->2->2",
            "2->8->2", "18->32->2->2", "18->32->8->2", "64->16->64",
            "6->4->4->1", "6->8->4->1", "9->8->1",
        ):
            topo = Topology.parse(spec)
            assert model.invocation_cycles(topo) > 0
            assert model.invocation_energy_pj(topo) > 0

    def test_area_scales_with_weights(self):
        model = NPUModel()
        small = Topology.parse("2->2->2")
        big = Topology.parse("64->16->64")
        assert model.area_gates(big) > model.area_gates(small)

    def test_area_includes_pe_array(self):
        few = NPUModel(NPUConfig(n_pes=2))
        many = NPUModel(NPUConfig(n_pes=16))
        topo = Topology.parse("9->8->1")
        assert many.area_gates(topo) > few.area_gates(topo)

    def test_rumba_topology_never_slower_than_npu(self):
        """Table 1: Rumba's networks are smaller or equal, so cheaper."""
        from repro.apps import all_applications

        model = NPUModel()
        for app in all_applications():
            assert model.invocation_cycles(app.rumba_topology) <= (
                model.invocation_cycles(app.npu_topology)
            )
            assert model.invocation_energy_pj(app.rumba_topology) <= (
                model.invocation_energy_pj(app.npu_topology)
            )
