"""Financial risk — option pricing under an energy budget (Energy mode).

A risk desk re-prices a large option book on every market tick.  The
approximate accelerator makes that cheap, but mispriced outliers are
costly, and the machine has a fixed energy envelope.  Rumba's Energy
tuning mode (Sec. 3.4) spends a user-chosen re-execution budget on the
options its checker flags as worst.

The script streams ticks through the blackscholes benchmark in Energy mode
and shows the tuner converging onto the budget while error stays far below
the unchecked accelerator's.

Run:  python examples/financial_risk.py
"""

import numpy as np

from repro.apps.blackscholes import generate_options
from repro.core import RumbaConfig, TunerMode, prepare_system, summarize

ITERATION_BUDGET = 0.10  # the desk allows re-pricing 10% of the book exactly


def main() -> None:
    print("Preparing the blackscholes benchmark (offline training)...")
    config = RumbaConfig(
        scheme="treeErrors",
        mode=TunerMode.ENERGY,
        iteration_budget_fraction=ITERATION_BUDGET,
        initial_threshold=0.5,
    )
    system = prepare_system("blackscholes", scheme="treeErrors",
                            config=config, seed=0)

    rng = np.random.default_rng(2024)
    print(f"Streaming 12 market ticks of 2000 options each "
          f"(budget: re-price {ITERATION_BUDGET * 100:.0f}% exactly)\n")
    print(f"{'tick':>4}  {'threshold':>9}  {'re-priced':>9}  "
          f"{'unchecked err':>13}  {'Rumba err':>9}")
    for tick in range(12):
        book = generate_options(rng, 2000)
        record = system.run_invocation(book)
        print(f"{tick:4d}  {system.tuner.history[-2]:9.4f}  "
              f"{record.fix_fraction * 100:8.1f}%  "
              f"{record.unchecked_error * 100:12.2f}%  "
              f"{record.measured_error * 100:8.2f}%")

    steady = summarize(system.records[6:], config.target_output_error)
    print(f"\nsteady-state re-pricing rate: {steady.fix_fraction * 100:.1f}% "
          f"(budget {ITERATION_BUDGET * 100:.0f}%)")
    print(f"steady-state error: {steady.measured_error * 100:.2f}% vs "
          f"{steady.unchecked_error * 100:.2f}% unchecked")


if __name__ == "__main__":
    main()
