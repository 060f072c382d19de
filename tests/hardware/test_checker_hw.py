"""Unit tests for the checker hardware cost model (Fig. 7 / Fig. 17)."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.checker_hw import CheckerCostParams, CheckerModel
from repro.hardware.npu import NPUModel
from repro.nn.mlp import Topology


class TestCheckerModel:
    def test_none_checker_is_free(self):
        checker = CheckerModel("none")
        assert checker.check_energy_pj() == 0.0
        assert checker.check_cycles() == 0.0

    def test_linear_scales_with_inputs(self):
        narrow = CheckerModel("linear", n_inputs=2)
        wide = CheckerModel("linear", n_inputs=64)
        assert wide.check_energy_pj() > narrow.check_energy_pj()
        assert wide.check_cycles() > narrow.check_cycles()

    def test_tree_scales_with_depth(self):
        shallow = CheckerModel("tree", tree_depth=3)
        deep = CheckerModel("tree", tree_depth=7)
        assert deep.check_energy_pj() > shallow.check_energy_pj()
        assert deep.check_cycles() > shallow.check_cycles()

    def test_tree_cycles_sequential(self):
        checker = CheckerModel("tree", tree_depth=7)
        assert checker.check_cycles() == 8.0  # one compare per level + final

    def test_ema_constant_cost(self):
        a = CheckerModel("ema", n_inputs=2)
        b = CheckerModel("ema", n_inputs=64)
        assert a.check_energy_pj() == b.check_energy_pj()
        assert a.check_cycles() == b.check_cycles() == 3.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            CheckerModel("quantum")

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            CheckerModel("linear", n_inputs=0)
        with pytest.raises(ConfigurationError):
            CheckerModel("tree", tree_depth=0)

    def test_invalid_throughput(self):
        with pytest.raises(ConfigurationError):
            CheckerCostParams(macs_per_cycle=0.0)


class TestAreaModel:
    def test_none_checker_has_no_area(self):
        assert CheckerModel("none").area_gates(100) == 0.0

    def test_buffer_scales_area(self):
        checker = CheckerModel("tree")
        assert checker.area_gates(300) > checker.area_gates(10)

    def test_ema_smallest(self):
        linear = CheckerModel("linear", n_inputs=9).area_gates(10)
        tree = CheckerModel("tree").area_gates(100)
        ema = CheckerModel("ema").area_gates(1)
        assert ema < linear and ema < tree

    def test_negative_words_rejected(self):
        with pytest.raises(ConfigurationError):
            CheckerModel("linear").area_gates(-1)

    def test_checkers_fraction_of_npu(self):
        """The Fig. 7 'light-weight' claim in silicon: every checker is a
        fraction of the PE array it guards."""
        npu = NPUModel()
        for spec in ("9->8->1", "6->4->4->1", "64->16->64"):
            topo = Topology.parse(spec)
            npu_area = npu.area_gates(topo)
            for kind, words in (("linear", topo.n_inputs + 1),
                                ("tree", 200), ("ema", 1)):
                checker = CheckerModel(kind, n_inputs=topo.n_inputs)
                assert checker.area_gates(words) < 0.6 * npu_area


class TestRelativeTime:
    """Fig. 17: checkers finish before the accelerator for every benchmark."""

    def test_fig17_checkers_faster_than_npu(self):
        from repro.apps import all_applications

        npu = NPUModel()
        for app in all_applications():
            topo = app.rumba_topology
            linear = CheckerModel("linear", n_inputs=topo.n_inputs)
            tree = CheckerModel("tree", n_inputs=topo.n_inputs, tree_depth=7)
            assert linear.relative_time(npu, topo) < 1.0, app.name
            assert tree.relative_time(npu, topo) < 1.0, app.name

    def test_relative_time_ratio(self):
        npu = NPUModel()
        topo = Topology.parse("9->8->1")
        checker = CheckerModel("linear", n_inputs=9)
        expected = checker.check_cycles() / npu.invocation_cycles(topo)
        assert checker.relative_time(npu, topo) == pytest.approx(expected)
