"""Unit tests for the sobel benchmark."""

import numpy as np
import pytest

from repro.apps.datasets import (
    extract_patches3x3,
    natural_image,
)
from repro.apps.sobel import KERNEL_X, KERNEL_Y, make_application, sobel_kernel
from repro.errors import ConfigurationError
from tests.apps.oracles import checkerboard, gradient_image, sobel_image


class TestSobelKernel:
    def test_flat_patch_zero_gradient(self):
        patch = np.full((1, 9), 120.0)
        assert sobel_kernel(patch)[0, 0] == 0.0

    def test_vertical_edge_detected(self):
        # Columns: 0, 0, 255 -> strong horizontal gradient.
        patch = np.array([[0.0, 0.0, 255.0] * 3])
        assert sobel_kernel(patch)[0, 0] > 100.0

    def test_output_clamped(self, rng):
        patches = rng.uniform(0, 255, size=(100, 9))
        out = sobel_kernel(patches)
        assert out.min() >= 0.0 and out.max() <= 255.0

    def test_rotation_symmetry(self):
        """A vertical edge scores the same as the equivalent horizontal one."""
        vertical = np.array([[0.0, 0.0, 255.0] * 3])
        horizontal = np.array([[0.0] * 3 + [0.0] * 3 + [255.0] * 3])
        assert sobel_kernel(vertical)[0, 0] == pytest.approx(
            sobel_kernel(horizontal)[0, 0]
        )

    def test_invariant_to_brightness_offset(self, rng):
        patches = rng.uniform(50, 150, size=(20, 9))
        shifted = patches + 50.0
        np.testing.assert_allclose(
            sobel_kernel(patches), sobel_kernel(shifted), atol=1e-9
        )

    def test_masks_are_standard_sobel(self):
        assert KERNEL_X.tolist() == [-1, 0, 1, -2, 0, 2, -1, 0, 1]
        assert KERNEL_Y.tolist() == [-1, -2, -1, 0, 0, 0, 1, 2, 1]

    def test_wrong_width(self):
        with pytest.raises(ConfigurationError):
            sobel_kernel(np.ones((2, 8)))


class TestSobelImage:
    def test_shape_preserved(self):
        img = natural_image((30, 40), seed=1)
        assert sobel_image(img).shape == (30, 40)

    def test_ramp_has_uniform_gradient(self):
        img = gradient_image((16, 64))
        edges = sobel_image(img)
        interior = edges[1:-1, 1:-1]
        # A linear ramp has constant gradient magnitude everywhere inside.
        assert interior.std() == pytest.approx(0.0, abs=1e-9)
        assert interior.mean() > 0.0

    def test_checkerboard_edges_on_tile_boundaries(self):
        img = checkerboard((32, 32), tile=8)
        edges = sobel_image(img)
        # Interior of tiles is flat; boundaries light up.
        assert edges[4, 4] == 0.0
        assert edges[4, 7] > 50.0

    def test_matches_kernel_on_patches(self):
        img = natural_image((12, 12), seed=2)
        expected = sobel_kernel(extract_patches3x3(img)).reshape(12, 12)
        np.testing.assert_array_equal(sobel_image(img), expected)


class TestApplication:
    def test_table1_row(self):
        app = make_application()
        assert str(app.rumba_topology) == "9->8->1"
        assert str(app.npu_topology) == "9->8->1"
        assert app.domain == "Image Processing"
