"""Unit and property tests for the inversek2j benchmark."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.inversek2j import (
    LINK1,
    LINK2,
    generate_targets,
    inverse_kinematics,
    make_application,
)
from repro.errors import ConfigurationError
from tests.apps.oracles import forward_kinematics


class TestInverseKinematics:
    def test_roundtrip_on_reachable_points(self, rng):
        targets = generate_targets(rng, 500)
        angles = inverse_kinematics(targets)
        recovered = forward_kinematics(angles)
        np.testing.assert_allclose(recovered, targets, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.16, 0.94),
        st.floats(-np.pi, np.pi),
    )
    def test_roundtrip_property(self, radius_fraction, angle):
        reach = LINK1 + LINK2
        target = np.array([
            [radius_fraction * reach * np.cos(angle),
             radius_fraction * reach * np.sin(angle)]
        ])
        angles = inverse_kinematics(target)
        np.testing.assert_allclose(forward_kinematics(angles), target, atol=1e-9)

    def test_unreachable_point_clamped(self):
        target = np.array([[5.0, 0.0]])  # beyond max reach of 1.0
        angles = inverse_kinematics(target)
        recovered = forward_kinematics(angles)
        # Clamped solution lands on the workspace boundary.
        assert np.hypot(*recovered[0]) == pytest.approx(LINK1 + LINK2)

    def test_straight_arm_at_full_reach(self):
        target = np.array([[LINK1 + LINK2, 0.0]])
        angles = inverse_kinematics(target)
        assert angles[0, 1] == pytest.approx(0.0, abs=1e-9)  # elbow straight

    def test_elbow_angle_in_range(self, rng):
        angles = inverse_kinematics(generate_targets(rng, 300))
        assert np.all(angles[:, 1] >= 0.0)
        assert np.all(angles[:, 1] <= np.pi)

    def test_wrong_width(self):
        with pytest.raises(ConfigurationError):
            inverse_kinematics(np.ones((3, 3)))
        with pytest.raises(ConfigurationError):
            forward_kinematics(np.ones((3, 1)))


class TestGenerator:
    def test_all_targets_reachable(self, rng):
        targets = generate_targets(rng, 1000)
        radii = np.hypot(targets[:, 0], targets[:, 1])
        assert np.all(radii <= LINK1 + LINK2)
        assert np.all(radii >= abs(LINK1 - LINK2))

    def test_table1_size(self, rng):
        assert generate_targets(rng, 10000).shape == (10000, 2)


class TestApplication:
    def test_table1_row(self):
        app = make_application()
        assert str(app.rumba_topology) == "2->2->2"
        assert str(app.npu_topology) == "2->8->2"
        assert app.domain == "Robotics"
