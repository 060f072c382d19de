"""Unit tests for the mosaic application (Fig. 3 case study)."""

import numpy as np
import pytest

from repro.apps.datasets import flower_image
from repro.apps.mosaic import (
    approx_average_brightness,
    average_brightness,
    build_mosaic,
    perforation_error_survey,
)
from repro.errors import ConfigurationError
from tests.apps.oracles import gradient_image


class TestBrightness:
    def test_exact_is_mean(self):
        img = np.array([[0.0, 100.0], [200.0, 100.0]])
        assert average_brightness(img) == pytest.approx(100.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            average_brightness(np.empty((0, 0)))

    def test_perforated_close_on_uniform_image(self):
        img = np.full((64, 64), 80.0)
        approx = approx_average_brightness(img, skip_rate=0.98)
        assert approx == pytest.approx(80.0)

    def test_perforated_error_depends_on_input(self):
        """The Fig. 3 premise: same perforation, different per-image error."""
        errors = []
        for seed in range(30):
            img = flower_image((64, 64), seed=seed)
            exact = average_brightness(img)
            approx = approx_average_brightness(img, skip_rate=0.98)
            errors.append(abs(approx - exact) / exact)
        assert max(errors) > 3 * (sum(errors) / len(errors)) * 0.5
        assert np.std(errors) > 0.0

    def test_random_mode_needs_rng(self):
        img = flower_image((32, 32), seed=0)
        with pytest.raises(ConfigurationError):
            approx_average_brightness(img, 0.9, mode="random")


class TestBuildMosaic:
    def _tiles(self):
        return [np.full((8, 8), v) for v in (0.0, 64.0, 128.0, 192.0, 255.0)]

    def test_output_shape(self):
        target = gradient_image((32, 32))
        out = build_mosaic(target, self._tiles(), cell=8)
        assert out.shape == (32, 32)

    def test_picks_brightness_matched_tiles(self):
        target = np.full((16, 16), 130.0)
        out = build_mosaic(target, self._tiles(), cell=8)
        np.testing.assert_array_equal(out, 128.0)  # nearest tile brightness

    def test_gradient_uses_multiple_tiles(self):
        target = gradient_image((16, 64))
        out = build_mosaic(target, self._tiles(), cell=8)
        assert np.unique(out).size >= 3

    def test_approximate_brightness_can_mismatch_tiles(self):
        rng = np.random.default_rng(0)
        tiles = [flower_image((16, 16), seed=s) for s in range(30)]
        target = flower_image((64, 64), seed=99)
        exact = build_mosaic(target, tiles, cell=8)
        noisy = build_mosaic(
            target,
            tiles,
            cell=8,
            brightness_fn=lambda img: average_brightness(img)
            + rng.normal(0, 30.0),
        )
        assert not np.array_equal(exact, noisy)

    def test_validations(self):
        with pytest.raises(ConfigurationError):
            build_mosaic(gradient_image((16, 16)), [], cell=8)
        with pytest.raises(ConfigurationError):
            build_mosaic(gradient_image((16, 16)), self._tiles(), cell=0)
        with pytest.raises(ConfigurationError):
            build_mosaic(np.ones((4, 4)), self._tiles(), cell=8)


class TestSurvey:
    def test_fig3_shape(self):
        result = perforation_error_survey(n_images=100, seed=1)
        assert result.n_images == 100
        assert result.max_error > result.mean_error
        assert result.mean_error > 0.0

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            perforation_error_survey(n_images=0)
