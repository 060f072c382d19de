"""3D gaming — collision detection on the approximate accelerator.

A game physics tick tests object hulls for collisions with the jmeint
kernel.  On the accelerator, a wrong decision is either a *missed hit*
(objects pass through each other — very visible) or a *ghost hit* (phantom
bounce).  Rumba's checker flags the face pairs it distrusts and re-tests
exactly those on the CPU.

The script sweeps two icosahedron hulls past each other and compares the
per-tick collision verdicts of the exact kernel, the unchecked
accelerator, and Rumba.

Run:  python examples/game_collision.py
"""

import numpy as np

from repro.apps.jmeint import icosahedron, mesh_collision, transform_mesh
from repro.core import RumbaConfig, prepare_system, summarize


def main() -> None:
    print("Preparing the jmeint benchmark (offline training)...")
    # Collision verdicts OR over hundreds of face pairs, so per-pair
    # quality must be held high: target 93% per-element quality.
    config = RumbaConfig(scheme="treeErrors", target_output_quality=0.93)
    system = prepare_system("jmeint", scheme="treeErrors", config=config,
                            seed=0)

    def rumba_kernel(pairs):
        return system.run_invocation(pairs, measure_quality=False).outputs

    # Keep the scene near the unit cube the kernel was trained on.
    hull_a = transform_mesh(icosahedron(radius=0.35),
                            offset=(0.38, 0.5, 0.5))
    offsets = np.linspace(0.77, 0.0, 21)  # hull B approaches hull A
    print(f"\nSweeping hull B toward hull A over {offsets.size} physics "
          f"ticks ({hull_a.shape[0] ** 2} face pairs per tick)\n")
    print(f"{'offset':>7}  {'exact':>6}  {'unchecked':>9}  {'rumba':>6}")

    mismatches_unchecked = 0
    mismatches_rumba = 0
    for offset in offsets:
        hull_b = transform_mesh(
            icosahedron(radius=0.35), offset=(0.38 + offset, 0.5, 0.5)
        )
        exact = mesh_collision(hull_a, hull_b)
        unchecked = mesh_collision(hull_a, hull_b, kernel=system.backend)
        rumba = mesh_collision(hull_a, hull_b, kernel=rumba_kernel)
        mismatches_unchecked += int(unchecked != exact)
        mismatches_rumba += int(rumba != exact)
        marker = "" if unchecked == exact else "   <- unchecked wrong"
        print(f"{offset:7.2f}  {str(exact):>6}  {str(unchecked):>9}  "
              f"{str(rumba):>6}{marker}")

    print(f"\nwrong verdicts: unchecked {mismatches_unchecked}/"
          f"{offsets.size}, Rumba {mismatches_rumba}/{offsets.size}")
    print("(the surviving mistakes sit right at the contact boundary, the "
          "hardest pairs for any input-based checker)")
    fixed = summarize(system.records, config.target_output_error).fix_fraction
    print(f"Rumba re-tested {fixed * 100:.1f}% of face "
          f"pairs on the CPU to get there")


if __name__ == "__main__":
    main()
