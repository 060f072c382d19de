"""Unit tests for whole-application cost accounting (Figs. 14-16)."""

import numpy as np
import pytest

from repro.apps import APPLICATION_NAMES, get_application
from repro.core.costs import CostModel, OffloadOverhead
from repro.errors import ConfigurationError
from repro.hardware.checker_hw import CheckerModel
from repro.hardware.energy import EnergyModel, InstructionMix
from repro.hardware.npu import NPUConfig, NPUModel


@pytest.fixture(scope="module")
def sobel_cost_model():
    return CostModel(get_application("sobel"))


class TestCostModel:
    def test_unchecked_npu_saves_energy(self, sobel_cost_model):
        app = sobel_cost_model.app
        costs = sobel_cost_model.whole_app_costs(
            app.npu_topology, CheckerModel("none"), fix_fraction=0.0
        )
        assert costs.energy_savings > 1.5
        assert costs.speedup > 1.5

    def test_fixing_costs_energy(self, sobel_cost_model):
        app = sobel_cost_model.app
        checker = CheckerModel("tree", n_inputs=9)
        none = sobel_cost_model.whole_app_costs(app.rumba_topology, checker, 0.0)
        some = sobel_cost_model.whole_app_costs(app.rumba_topology, checker, 0.3)
        assert some.scheme_energy_pj > none.scheme_energy_pj
        assert some.energy_savings < none.energy_savings

    def test_small_fix_fraction_keeps_speedup(self, sobel_cost_model):
        """Recovery overlaps the accelerator: modest fixing is latency-free."""
        app = sobel_cost_model.app
        checker = CheckerModel("tree", n_inputs=9)
        none = sobel_cost_model.whole_app_costs(app.rumba_topology, checker, 0.0)
        keepup = sobel_cost_model.cpu_iteration_cycles() / (
            sobel_cost_model.npu.invocation_cycles(app.rumba_topology)
        )
        modest = 0.5 / keepup
        some = sobel_cost_model.whole_app_costs(
            app.rumba_topology, checker, modest
        )
        assert some.speedup == pytest.approx(none.speedup, rel=1e-9)

    def test_heavy_fixing_limits_speedup(self, sobel_cost_model):
        app = sobel_cost_model.app
        checker = CheckerModel("tree", n_inputs=9)
        light = sobel_cost_model.whole_app_costs(app.rumba_topology, checker, 0.0)
        heavy = sobel_cost_model.whole_app_costs(app.rumba_topology, checker, 1.0)
        assert heavy.speedup < light.speedup

    def test_full_fixing_never_beats_baseline_kernel(self, sobel_cost_model):
        """Fixing 100% re-runs everything on the CPU: no kernel speedup."""
        app = sobel_cost_model.app
        costs = sobel_cost_model.whole_app_costs(
            app.rumba_topology, CheckerModel("none"), 1.0
        )
        assert costs.speedup <= 1.05

    def test_fix_fraction_validated(self, sobel_cost_model):
        app = sobel_cost_model.app
        with pytest.raises(ConfigurationError):
            sobel_cost_model.whole_app_costs(
                app.rumba_topology, CheckerModel("none"), 1.5
            )

    def test_normalized_energy_is_inverse_savings(self, sobel_cost_model):
        app = sobel_cost_model.app
        costs = sobel_cost_model.whole_app_costs(
            app.npu_topology, CheckerModel("none"), 0.0
        )
        assert costs.normalized_energy == pytest.approx(1.0 / costs.energy_savings)

    def test_kmeans_offload_barely_pays(self):
        """The paper's kmeans observation: tiny kernel, no real gains."""
        cost_model = CostModel(get_application("kmeans"))
        app = cost_model.app
        costs = cost_model.whole_app_costs(
            app.npu_topology, CheckerModel("none"), 0.0
        )
        assert costs.speedup < 1.1
        assert costs.energy_savings < 1.6

    def test_overhead_charged(self):
        app = get_application("sobel")
        cheap = CostModel(
            app, overhead=OffloadOverhead(InstructionMix(), overlapped_cycles=0.0)
        )
        expensive = CostModel(
            app,
            overhead=OffloadOverhead(
                InstructionMix(int_ops=100), overlapped_cycles=5.0
            ),
        )
        c1 = cheap.whole_app_costs(app.rumba_topology, CheckerModel("none"), 0.0)
        c2 = expensive.whole_app_costs(app.rumba_topology, CheckerModel("none"), 0.0)
        assert c2.scheme_energy_pj > c1.scheme_energy_pj
        assert c2.scheme_cycles > c1.scheme_cycles

    def test_baseline_independent_of_scheme(self, sobel_cost_model):
        app = sobel_cost_model.app
        a = sobel_cost_model.whole_app_costs(app.rumba_topology,
                                             CheckerModel("none"), 0.0)
        b = sobel_cost_model.whole_app_costs(app.npu_topology,
                                             CheckerModel("tree"), 0.5)
        assert a.baseline_energy_pj == b.baseline_energy_pj
        assert a.baseline_cycles == b.baseline_cycles


@pytest.mark.parametrize("name", APPLICATION_NAMES)
def test_energy_savings_independent_of_cycle_model(name):
    """Energy is a sum of per-event charges: no cycle parameter moves it.

    The Fig. 14 and headline energy rows rest on this; a time-dependent
    term (static power) would break it, and their note with it.
    """
    app = get_application(name)
    slow = CostModel(
        app,
        energy_model=EnergyModel(effective_ipc=0.7, branch_mispredict_ratio=0.1,
                                 mispredict_penalty_cycles=30.0),
        npu=NPUModel(NPUConfig(n_pes=2, queue_words_per_cycle=0.5,
                               invocation_overhead_cycles=40.0)),
    )
    configurations = (
        (app.npu_topology, CheckerModel("none"), 0.0),
        (app.rumba_topology, CheckerModel("tree"), 0.2),
    )
    for topology, checker, fix_fraction in configurations:
        analytic = CostModel(app).whole_app_costs(topology, checker, fix_fraction)
        other = slow.whole_app_costs(topology, checker, fix_fraction)
        assert other.energy_savings == analytic.energy_savings
        assert other.speedup != analytic.speedup
