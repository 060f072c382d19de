"""inversek2j — inverse kinematics for a 2-joint arm (Robotics).

The kernel solves the closed-form inverse kinematics of a planar two-link
arm: given the end-effector position ``(x, y)`` it returns the joint angles
``(theta1, theta2)``.  This is the exact kernel the NPU benchmark
accelerates.

Table 1: train/test = 10K random (x, y) points, Rumba NN ``2->2->2``, NPU
NN ``2->8->2``, metric = Mean Relative Error.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application, mean_relative_error, relative_errors
from repro.errors import ConfigurationError
from repro.hardware.energy import InstructionMix
from repro.nn.mlp import Topology

__all__ = [
    "LINK1",
    "LINK2",
    "inverse_kinematics",
    "generate_targets",
    "make_application",
]

#: Link lengths of the arm (same for every invocation, as in the benchmark).
LINK1 = 0.5
LINK2 = 0.5


def inverse_kinematics(targets: np.ndarray) -> np.ndarray:
    """Joint angles reaching each ``(x, y)`` target (elbow-down solution).

    Unreachable targets are clamped to the arm's annulus boundary, as the
    benchmark's reference implementation does.  Returns ``(n, 2)`` angles.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[1] != 2:
        raise ConfigurationError("inversek2j kernel takes (x, y) input columns")
    x, y = targets[:, 0], targets[:, 1]
    cos_t2 = (x * x + y * y - LINK1**2 - LINK2**2) / (2.0 * LINK1 * LINK2)
    cos_t2 = np.clip(cos_t2, -1.0, 1.0)
    theta2 = np.arccos(cos_t2)
    k1 = LINK1 + LINK2 * np.cos(theta2)
    k2 = LINK2 * np.sin(theta2)
    theta1 = np.arctan2(y, x) - np.arctan2(k2, k1)
    return np.column_stack([theta1, theta2])


def generate_targets(rng: np.random.Generator, n: int = 10000) -> np.ndarray:
    """Random reachable (x, y) points in the arm's workspace."""
    reach = LINK1 + LINK2
    # Sample radius away from the singular center and the boundary.
    radius = rng.uniform(0.15 * reach, 0.95 * reach, size=n)
    angle = rng.uniform(-np.pi, np.pi, size=n)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def make_application() -> Application:
    """Construct the inversek2j benchmark (Table 1 row 3)."""
    return Application(
        name="inversek2j",
        domain="Robotics",
        kernel=inverse_kinematics,
        train_inputs=lambda rng: generate_targets(rng, 10000),
        test_inputs=lambda rng: generate_targets(rng, 10000),
        rumba_topology=Topology.parse("2->2->2"),
        npu_topology=Topology.parse("2->8->2"),
        metric_name="Mean Relative Error",
        element_error_fn=lambda a, e: relative_errors(a, e, epsilon=1.5),
        quality_metric_fn=lambda a, e: mean_relative_error(a, e, epsilon=1.5),
        # acos + 2x atan2 + sqrt-class math dominates the exact kernel.
        instruction_mix=InstructionMix(
            int_ops=25, fp_ops=30, loads=15, stores=6, branches=10,
            transcendentals=4,
        ),
        offload_fraction=0.95,
        train_description="10K random (x, y) points",
        test_description="10K random (x, y) points",
    )
