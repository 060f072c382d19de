"""Model validation — dynamic simulators vs the analytical cost models.

The evaluation's energy/speedup numbers come from closed-form models (the
offline-friendly substitute for GEM5+McPAT and the NPU RTL).  This bench
cross-checks both against the dynamic simulators in this repo:

* the trace-based out-of-order core sim vs ``EnergyModel.iteration_cycles``
  on every Table 1 instruction mix, and
* the PE-level NPU schedule vs ``NPUModel.invocation_cycles`` on every
  Table 1 topology.

The claims that matter are *relative* (which kernel is slower, how much an
accelerator helps), so the asserted properties are bounded ratios and
preserved orderings.
"""

import numpy as np
from _bench_utils import APPLICATION_NAMES, banner, emit, run_once

from repro.apps import all_applications
from repro.tables import format_table
from repro.hardware.cpusim import simulate_mix
from repro.hardware.energy import EnergyModel
from repro.hardware.npu import NPUModel
from repro.hardware.npusim import simulate_npu_invocation


def run_validation():
    energy_model = EnergyModel()
    npu_model = NPUModel()
    cpu_rows = []
    npu_rows = []
    for app in all_applications():
        sim = simulate_mix(app.instruction_mix, n_iterations=25, seed=0)
        analytical = energy_model.iteration_cycles(app.instruction_mix)
        cpu_rows.append([
            app.name,
            sim.cycles_per_iteration(25),
            analytical,
            sim.cycles_per_iteration(25) / analytical,
            sim.ipc,
        ])
        schedule = simulate_npu_invocation(app.rumba_topology)
        npu_analytical = npu_model.invocation_cycles(app.rumba_topology)
        npu_rows.append([
            app.name,
            str(app.rumba_topology),
            schedule.total_cycles,
            npu_analytical,
            schedule.total_cycles / npu_analytical,
            schedule.pe_utilization,
        ])
    return cpu_rows, npu_rows


def test_model_validation(benchmark):
    cpu_rows, npu_rows = run_once(benchmark, run_validation)
    emit(banner("CPU: trace-driven OoO simulation vs analytical model "
                "(cycles per kernel iteration)"))
    emit(format_table(
        ["Benchmark", "simulated", "analytical", "ratio", "sim IPC"],
        cpu_rows,
    ))
    emit(banner("NPU: PE-level schedule vs analytical model "
                "(cycles per invocation, Rumba topologies)"))
    emit(format_table(
        ["Benchmark", "topology", "scheduled", "analytical", "ratio",
         "PE util"],
        npu_rows,
    ))
    cpu_ratios = [row[3] for row in cpu_rows]
    npu_ratios = [row[4] for row in npu_rows]
    # Bounded disagreement...
    assert all(1.0 <= r <= 3.5 for r in cpu_ratios)
    assert all(0.4 <= r <= 2.5 for r in npu_ratios)
    # ...and consistent across benchmarks, so relative results carry over.
    assert max(cpu_ratios) / min(cpu_ratios) < 1.6
    # Kernel cost ordering agrees between the two CPU models.
    sim_order = np.argsort([row[1] for row in cpu_rows])
    ana_order = np.argsort([row[2] for row in cpu_rows])
    np.testing.assert_array_equal(sim_order, ana_order)


if __name__ == "__main__":
    test_model_validation(None)
