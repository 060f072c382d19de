"""Unit tests for the kmeans benchmark and the Lloyd's algorithm substrate."""

import numpy as np
import pytest

from repro.apps.datasets import natural_image
from repro.apps.kmeans import (
    DEFAULT_K,
    assignment_kernel,
    lloyd_kmeans,
    make_application,
    pixel_features,
)
from repro.errors import ConfigurationError


def segment_image(image):
    """The whole application: segment an image into centroid intensities."""
    image = np.asarray(image, dtype=float)
    return assignment_kernel(pixel_features(image)).reshape(image.shape)


class TestLloydKmeans:
    def test_recovers_separated_clusters(self, rng):
        centers = np.array([[0.0] * 6, [100.0] * 6, [200.0] * 6])
        points = np.vstack([
            c + rng.normal(0, 1.0, size=(50, 6)) for c in centers
        ])
        found = lloyd_kmeans(points, k=3, rng=rng)
        found_sorted = found[np.argsort(found[:, 0])]
        np.testing.assert_allclose(found_sorted, centers, atol=2.0)

    def test_centroid_count(self, rng):
        points = rng.random((100, 6)) * 255
        assert lloyd_kmeans(points, k=5, rng=rng).shape == (5, 6)

    def test_too_few_points(self, rng):
        with pytest.raises(ConfigurationError):
            lloyd_kmeans(rng.random((3, 6)), k=5)

    def test_invalid_k(self, rng):
        with pytest.raises(ConfigurationError):
            lloyd_kmeans(rng.random((10, 6)), k=0)

    def test_converges_on_duplicate_points(self):
        points = np.tile(np.arange(6.0), (20, 1))
        centroids = lloyd_kmeans(points, k=2, rng=np.random.default_rng(0))
        assert np.all(np.isfinite(centroids))

    def test_assignment_cost_decreases(self, rng):
        points = rng.random((200, 6)) * 255
        centroids = lloyd_kmeans(points, k=4, rng=rng, max_iters=50)
        final_cost = np.min(
            np.linalg.norm(points[:, None] - centroids[None], axis=2), axis=1
        ).sum()
        one_step = lloyd_kmeans(points, k=4, rng=np.random.default_rng(rng.integers(1 << 31)), max_iters=1)
        initial_cost = np.min(
            np.linalg.norm(points[:, None] - one_step[None], axis=2), axis=1
        ).sum()
        assert final_cost <= initial_cost * 1.05


class TestPixelFeatures:
    def test_shape(self):
        img = natural_image((20, 30), seed=1)
        feats = pixel_features(img)
        assert feats.shape == (600, 6)

    def test_intensity_column(self):
        img = natural_image((10, 10), seed=2)
        feats = pixel_features(img)
        np.testing.assert_array_equal(feats[:, 0], img.ravel())

    def test_local_stats_ordering(self):
        img = natural_image((16, 16), seed=3)
        feats = pixel_features(img)
        local_mean, local_max, local_min = feats[:, 3], feats[:, 4], feats[:, 5]
        assert np.all(local_min <= local_mean + 1e-9)
        assert np.all(local_mean <= local_max + 1e-9)

    def test_position_normalized(self):
        feats = pixel_features(natural_image((8, 8), seed=4))
        assert feats[:, 1].max() == pytest.approx(255.0)
        assert feats[:, 2].min() == pytest.approx(0.0)

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            pixel_features(np.ones(10))


class TestAssignmentKernel:
    def test_outputs_are_centroid_intensities(self):
        img = natural_image((16, 16), seed=5)
        out = assignment_kernel(pixel_features(img))
        assert out.shape == (256, 1)
        # Output values come from a small discrete set (the centroids).
        assert np.unique(np.round(out, 6)).size <= DEFAULT_K

    def test_wrong_width(self):
        with pytest.raises(ConfigurationError):
            assignment_kernel(np.ones((4, 5)))

    def test_deterministic(self):
        img = natural_image((12, 12), seed=6)
        feats = pixel_features(img)
        np.testing.assert_array_equal(
            assignment_kernel(feats), assignment_kernel(feats)
        )


class TestSegmentImage:
    def test_output_shape(self):
        img = natural_image((24, 18), seed=7)
        assert segment_image(img).shape == (24, 18)

    def test_quantizes_intensities(self):
        img = natural_image((32, 32), seed=8)
        seg = segment_image(img)
        assert np.unique(np.round(seg, 6)).size <= DEFAULT_K


class TestApplication:
    def test_table1_row(self):
        app = make_application()
        assert str(app.rumba_topology) == "6->4->4->1"
        assert str(app.npu_topology) == "6->8->4->1"
        assert app.metric_name == "Mean Output Diff"
        assert app.domain == "Machine Learning"
