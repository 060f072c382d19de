"""Unit tests for the synthetic dataset generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.datasets import (
    extract_patches3x3,
    flower_image,
    image_to_blocks,
    natural_image,
)
from repro.errors import ConfigurationError
from tests.apps.oracles import blocks_to_image, checkerboard, gradient_image


class TestNaturalImage:
    def test_range_and_shape(self):
        img = natural_image((64, 48), seed=3)
        assert img.shape == (64, 48)
        assert img.min() >= 0.0 and img.max() <= 255.0

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(
            natural_image((32, 32), seed=5), natural_image((32, 32), seed=5)
        )

    def test_different_seeds_differ(self):
        a = natural_image((32, 32), seed=1)
        b = natural_image((32, 32), seed=2)
        assert not np.array_equal(a, b)

    def test_detail_increases_high_frequency_energy(self):
        smooth = natural_image((128, 128), seed=9, detail=0.0)
        detailed = natural_image((128, 128), seed=9, detail=1.8)
        # Gradient magnitude as a proxy for high-frequency content.
        def hf(img):
            return float(np.abs(np.diff(img, axis=1)).mean())
        assert hf(detailed) > hf(smooth)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            natural_image((4, 4))

    def test_detail_bounds(self):
        with pytest.raises(ConfigurationError):
            natural_image((32, 32), detail=2.5)


class TestFlowerImage:
    def test_range(self):
        img = flower_image((32, 32), seed=11)
        assert img.min() >= 0.0 and img.max() <= 255.0

    def test_population_varies_in_brightness(self):
        means = [flower_image((32, 32), seed=s).mean() for s in range(20)]
        assert np.std(means) > 5.0  # input-dependence needs spread


class TestStructuredImages:
    def test_checkerboard_two_levels(self):
        img = checkerboard((16, 16), tile=4)
        assert set(np.unique(img)) == {40.0, 215.0}

    def test_checkerboard_invalid_tile(self):
        with pytest.raises(ConfigurationError):
            checkerboard(tile=0)

    def test_gradient_monotone(self):
        img = gradient_image((8, 32))
        assert np.all(np.diff(img[0]) > 0)
        assert img[0, 0] == 0.0 and img[0, -1] == 255.0


class TestBlocking:
    def test_roundtrip(self):
        img = natural_image((64, 64), seed=2)
        blocks = image_to_blocks(img)
        restored = blocks_to_image(blocks, img.shape)
        np.testing.assert_array_equal(restored, img)

    def test_crops_to_block_multiple(self):
        img = natural_image((67, 70), seed=2)
        blocks = image_to_blocks(img)
        assert blocks.shape == ((67 // 8) * (70 // 8), 64)

    def test_block_layout_row_major(self):
        img = np.arange(64.0).reshape(8, 8)
        blocks = image_to_blocks(img)
        np.testing.assert_array_equal(blocks[0], img.ravel())

    def test_too_small_image(self):
        with pytest.raises(ConfigurationError):
            image_to_blocks(np.ones((4, 4)))

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            image_to_blocks(np.ones((8, 8, 3)))

    def test_blocks_to_image_validates_shape(self):
        with pytest.raises(ConfigurationError):
            blocks_to_image(np.ones((3, 64)), (16, 16))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(8, 40), st.integers(8, 40))
    def test_roundtrip_property(self, h, w):
        img = np.arange(h * w, dtype=float).reshape(h, w)
        blocks = image_to_blocks(img)
        restored = blocks_to_image(blocks, img.shape)
        hc, wc = (h // 8) * 8, (w // 8) * 8
        np.testing.assert_array_equal(restored, img[:hc, :wc])


class TestPatches:
    def test_shape(self):
        img = natural_image((16, 24), seed=1)
        patches = extract_patches3x3(img)
        assert patches.shape == (16 * 24, 9)

    def test_center_column_is_image(self):
        img = natural_image((12, 12), seed=4)
        patches = extract_patches3x3(img)
        np.testing.assert_array_equal(patches[:, 4], img.ravel())

    def test_interior_patch_values(self):
        img = np.arange(25.0).reshape(5, 5)
        patches = extract_patches3x3(img)
        center = patches[2 * 5 + 2]  # pixel (2, 2)
        expected = img[1:4, 1:4].ravel()
        np.testing.assert_array_equal(center, expected)

    def test_edge_replication(self):
        img = np.arange(9.0).reshape(3, 3)
        patches = extract_patches3x3(img)
        corner = patches[0]  # pixel (0, 0): replicated edges
        assert corner[0] == img[0, 0]  # top-left neighbor replicates
        assert corner[4] == img[0, 0]

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            extract_patches3x3(np.ones(10))
