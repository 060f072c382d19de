"""Unit tests for image-quality helpers (Fig. 2)."""

import numpy as np
import pytest

from repro.apps.datasets import natural_image
from repro.errors import ConfigurationError
from repro.metrics.quality import (
    concentrated_error_image,
    fig2_pair,
    mean_error_fraction,
    psnr,
    spread_error_image,
)


class TestMeanErrorFraction:
    def test_identical_images(self):
        img = natural_image((32, 32), seed=0)
        assert mean_error_fraction(img, img) == 0.0

    def test_known_offset(self):
        img = np.full((10, 10), 100.0)
        shifted = img + 25.5
        assert mean_error_fraction(shifted, img) == pytest.approx(0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            mean_error_fraction(np.ones((2, 2)), np.ones((3, 3)))


class TestPsnr:
    def test_identical_is_infinite(self):
        img = natural_image((16, 16), seed=1)
        assert psnr(img, img) == float("inf")

    def test_known_value(self):
        original = np.zeros((10, 10))
        corrupted = np.full((10, 10), 255.0)
        assert psnr(corrupted, original) == pytest.approx(0.0)

    def test_more_noise_lower_psnr(self, rng):
        img = natural_image((32, 32), seed=2)
        light = np.clip(img + rng.normal(0, 2, img.shape), 0, 255)
        heavy = np.clip(img + rng.normal(0, 30, img.shape), 0, 255)
        assert psnr(light, img) > psnr(heavy, img)


class TestFig2Images:
    """The Fig. 2 demonstration: equal average error, unequal quality."""

    def test_pair_has_matched_average_error(self):
        img = natural_image((64, 64), seed=3)
        concentrated, spread, average = fig2_pair(img, 0.10, seed=0)
        err_c = mean_error_fraction(concentrated, img)
        err_s = mean_error_fraction(spread, img)
        assert err_c == pytest.approx(average, abs=1e-6)
        assert err_s == pytest.approx(average, abs=0.01)
        assert 0.04 < average < 0.12  # ~10% of pixels at near-full error

    def test_concentrated_errors_perceptually_worse(self):
        """Same mean error, but concentrated errors crater PSNR."""
        img = natural_image((64, 64), seed=3)
        concentrated, spread, _ = fig2_pair(img, 0.10, seed=0)
        assert psnr(spread, img) > psnr(concentrated, img) + 3.0

    def test_concentrated_touches_only_fraction(self):
        img = natural_image((64, 64), seed=4)
        corrupted = concentrated_error_image(img, 0.10, 1.0, seed=1)
        touched = np.mean(corrupted != img)
        assert touched == pytest.approx(0.10, abs=0.005)

    def test_spread_touches_everything(self):
        img = natural_image((32, 32), seed=5)
        corrupted = spread_error_image(img, 0.10, seed=1)
        assert np.mean(corrupted != img) > 0.99

    def test_validations(self):
        img = natural_image((16, 16), seed=6)
        with pytest.raises(ConfigurationError):
            concentrated_error_image(img, pixel_fraction=1.5)
        with pytest.raises(ConfigurationError):
            spread_error_image(img, pixel_error=-0.1)
