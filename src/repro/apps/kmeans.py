"""kmeans — per-pixel cluster assignment (Machine Learning).

The benchmark segments an image with k-means.  The offline part runs
Lloyd's algorithm (implemented here from scratch) on the training image to
fix the centroids; the *accelerated region* is the per-pixel hot loop that
assigns a pixel's 6-dimensional feature vector to the nearest centroid and
emits that centroid's intensity — a pure ``6 -> 1`` kernel, matching
Table 1's topologies.

Features per pixel: intensity, normalized x, normalized y, and the local
3x3 mean/max/min — six values, as in the NPU benchmark's 6-input encoding.

Table 1: train = 220x200 image, test = 512x512 image, Rumba NN
``6->4->4->1``, NPU NN ``6->8->4->1``, metric = Mean Output Diff.
"""

from __future__ import annotations


import numpy as np

from repro.apps.base import Application, absolute_errors, mean_absolute_diff
from repro.apps.datasets import natural_image
from repro.errors import ConfigurationError
from repro.hardware.energy import InstructionMix
from repro.nn.mlp import Topology

__all__ = [
    "lloyd_kmeans",
    "pixel_features",
    "assignment_kernel",
    "make_application",
    "DEFAULT_K",
]

#: Number of clusters used by the benchmark.
DEFAULT_K = 6

#: Dynamic range of the kernel's outputs (spread of centroid intensities);
#: the Mean Output Diff metric is relative to this range.
OUTPUT_RANGE = 180.0


def lloyd_kmeans(
    points: np.ndarray,
    k: int = DEFAULT_K,
    max_iters: int = 50,
    rng: np.random.Generator = None,
    tol: float = 1e-4,
) -> np.ndarray:
    """Lloyd's k-means over row vectors; returns ``(k, dim)`` centroids.

    Initialization is k-means++-style (weighted farthest sampling).  Empty
    clusters are re-seeded from the point farthest from its centroid.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if k <= 0:
        raise ConfigurationError("k must be positive")
    if n < k:
        raise ConfigurationError(f"need at least k={k} points, got {n}")
    rng = rng or np.random.default_rng(0)

    # k-means++ seeding.
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest_sq = np.full(n, np.inf)
    for i in range(1, k):
        dist_sq = np.sum((points - centroids[i - 1]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, dist_sq)
        total = closest_sq.sum()
        if total <= 0:
            centroids[i:] = points[rng.integers(n, size=k - i)]
            break
        probs = closest_sq / total
        centroids[i] = points[rng.choice(n, p=probs)]

    for _ in range(max_iters):
        dists = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        labels = dists.argmin(axis=1)
        new_centroids = centroids.copy()
        for c in range(k):
            members = points[labels == c]
            if members.shape[0] == 0:
                farthest = dists[np.arange(n), labels].argmax()
                new_centroids[c] = points[farthest]
            else:
                new_centroids[c] = members.mean(axis=0)
        shift = np.linalg.norm(new_centroids - centroids, axis=1).max()
        centroids = new_centroids
        if shift < tol:
            break
    return centroids


def pixel_features(image: np.ndarray) -> np.ndarray:
    """Per-pixel 6-dim features: intensity, x, y, local mean/max/min.

    Positions are normalized to [0, 255] so every feature shares the
    intensity scale (the benchmark feeds raw same-scale values to the NN).
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ConfigurationError("kmeans expects a 2-D grayscale image")
    h, w = image.shape
    padded = np.pad(image, 1, mode="edge")
    neighborhoods = np.stack(
        [
            padded[dy : dy + h, dx : dx + w]
            for dy in range(3)
            for dx in range(3)
        ],
        axis=0,
    )
    local_mean = neighborhoods.mean(axis=0)
    local_max = neighborhoods.max(axis=0)
    local_min = neighborhoods.min(axis=0)
    ys, xs = np.mgrid[0:h, 0:w]
    x_norm = xs / max(w - 1, 1) * 255.0
    y_norm = ys / max(h - 1, 1) * 255.0
    features = np.stack(
        [image, x_norm, y_norm, local_mean, local_max, local_min], axis=-1
    )
    return features.reshape(-1, 6)


class _CentroidKernel:
    """The pure per-pixel assignment kernel bound to fixed centroids."""

    def __init__(self, centroids: np.ndarray):
        centroids = np.atleast_2d(np.asarray(centroids, dtype=float))
        if centroids.shape[1] != 6:
            raise ConfigurationError("centroids must be 6-dimensional")
        self.centroids = centroids

    def __call__(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.shape[1] != 6:
            raise ConfigurationError("kmeans kernel takes 6 feature columns")
        dists = np.linalg.norm(
            features[:, None, :] - self.centroids[None, :, :], axis=2
        )
        labels = dists.argmin(axis=1)
        # Emit the assigned centroid's intensity (feature 0).
        return self.centroids[labels, 0].reshape(-1, 1)


def _default_centroids() -> np.ndarray:
    """Centroids fit offline on the canonical training image."""
    train_img = natural_image((220, 200), seed=7, detail=0.3)
    feats = pixel_features(train_img)
    rng = np.random.default_rng(7)
    sample = feats[rng.choice(feats.shape[0], size=4000, replace=False)]
    return lloyd_kmeans(sample, k=DEFAULT_K, rng=rng)


_CANONICAL_CENTROIDS: np.ndarray = None


def _canonical_kernel() -> _CentroidKernel:
    global _CANONICAL_CENTROIDS
    if _CANONICAL_CENTROIDS is None:
        _CANONICAL_CENTROIDS = _default_centroids()
    return _CentroidKernel(_CANONICAL_CENTROIDS)


def assignment_kernel(features: np.ndarray) -> np.ndarray:
    """Module-level pure kernel using the canonical offline centroids."""
    return _canonical_kernel()(features)


def _train_features(rng: np.random.Generator) -> np.ndarray:
    seed = int(rng.integers(0, 2**31 - 1))
    return pixel_features(natural_image((220, 200), seed=seed, detail=0.3))


def _test_features(rng: np.random.Generator) -> np.ndarray:
    seed = int(rng.integers(0, 2**31 - 1)) + 1
    return pixel_features(natural_image((512, 512), seed=seed, detail=1.8))


def make_application() -> Application:
    """Construct the kmeans benchmark (Table 1 row 6)."""
    return Application(
        name="kmeans",
        domain="Machine Learning",
        kernel=assignment_kernel,
        train_inputs=_train_features,
        test_inputs=_test_features,
        rumba_topology=Topology.parse("6->4->4->1"),
        npu_topology=Topology.parse("6->8->4->1"),
        metric_name="Mean Output Diff",
        # The kernel's outputs are centroid intensities, whose dynamic
        # range (~180 levels on these images) is what "output diff" is
        # relative to -- not the full 255-level pixel range.
        element_error_fn=lambda a, e: absolute_errors(a, e, scale=OUTPUT_RANGE),
        quality_metric_fn=lambda a, e: mean_absolute_diff(a, e, scale=OUTPUT_RANGE),
        # Tiny hot loop: six-dim distances to six centroids.
        instruction_mix=InstructionMix(
            int_ops=8, fp_ops=12, loads=4, stores=1, branches=3,
        ),
        offload_fraction=0.65,
        train_description="220x200 pixel image",
        test_description="512x512 pixel image",
    )
