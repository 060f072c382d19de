"""Synthetic input generators (image and signal data).

The paper trains on a 220x200 image and tests on a 512x512 image for jpeg,
kmeans and sobel, and uses 800 flower photographs for the mosaic case study
(Fig. 3).  We do not ship photographs; these generators produce procedural
images with the properties the experiments exercise:

* :func:`natural_image` — smooth low-frequency luminance blobs plus edges
  and texture, a stand-in for a photographic test image,
* :func:`flower_image` — a radial petal pattern on a textured background
  whose spatial statistics vary strongly with the seed, which is what makes
  loop-perforation error input-dependent in Fig. 3.

All generators return float arrays with values in ``[0, 255]``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "natural_image",
    "flower_image",
    "image_to_blocks",
    "extract_patches3x3",
]


def _grid(shape: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    h, w = shape
    ys, xs = np.mgrid[0:h, 0:w]
    return ys / max(h - 1, 1), xs / max(w - 1, 1)


def natural_image(
    shape: Tuple[int, int] = (512, 512), seed: int = 0, detail: float = 0.5
) -> np.ndarray:
    """A 'photograph-like' luminance image in [0, 255].

    Built from Gaussian blobs (objects), a global illumination gradient,
    hard edges (occlusion boundaries), oriented stripe texture and sensor
    noise, so that DCT/JPEG, k-means segmentation and Sobel all have
    realistic structure to work with.

    ``detail`` in [0, 2] scales the amount of high-frequency content (edge
    count/contrast, stripe texture, noise).  The benchmarks train on a
    lower-detail image and test on a higher-detail one — output quality in
    an approximate system is input-dependent (paper Challenge II), and the
    distribution shift between the profiling image and the field image is
    precisely where the NPU's large errors come from.
    """
    if min(shape) < 8:
        raise ConfigurationError("image must be at least 8x8")
    if not (0.0 <= detail <= 2.0):
        raise ConfigurationError("detail must be in [0, 2]")
    rng = np.random.default_rng(seed)
    ys, xs = _grid(shape)
    img = 80.0 + 60.0 * xs + 30.0 * ys  # illumination gradient
    for _ in range(6):  # soft objects
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        sigma = rng.uniform(0.05, 0.25)
        amp = rng.uniform(-70.0, 70.0)
        img += amp * np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * sigma**2))
    n_edges = 2 + int(round(8 * detail))
    for _ in range(n_edges):  # hard edges
        pos = rng.uniform(0.1, 0.9)
        amp = rng.uniform(25.0, 40.0 + 80.0 * detail)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        if rng.random() < 0.5:
            img += sign * amp * (xs > pos)
        else:
            img += sign * amp * (ys > pos)
    n_stripes = int(round(12 * detail))
    for _ in range(n_stripes):  # oriented stripe texture patches
        freq = rng.uniform(10.0, 60.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        theta = rng.uniform(0.0, np.pi)
        cy, cx = rng.uniform(0.15, 0.85, size=2)
        extent = rng.uniform(0.08, 0.25)
        window = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * extent**2))
        carrier = np.sin(
            2 * np.pi * freq * (np.cos(theta) * xs + np.sin(theta) * ys) + phase
        )
        img += rng.uniform(50.0, 130.0) * detail * window * carrier
    n_speckle = int(round(3 * detail))
    for _ in range(n_speckle):  # impulsive speckle patches (foliage-like)
        cy, cx = rng.uniform(0.15, 0.85, size=2)
        extent = rng.uniform(0.05, 0.15)
        window = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * extent**2))
        img += window * rng.normal(0.0, 90.0, size=shape)
    img += rng.normal(0.0, 2.0 + 10.0 * detail, size=shape)  # sensor noise
    return np.clip(img, 0.0, 255.0)


def flower_image(shape: Tuple[int, int] = (64, 64), seed: int = 0) -> np.ndarray:
    """A procedural flower: radial petals over a textured background.

    The petal count, contrast and background statistics vary with the seed,
    so the population of flower images has widely varying brightness
    structure — the property Fig. 3's input-dependence experiment needs.
    """
    if min(shape) < 8:
        raise ConfigurationError("image must be at least 8x8")
    rng = np.random.default_rng(seed)
    ys, xs = _grid(shape)
    cy, cx = rng.uniform(0.35, 0.65, size=2)
    dy, dx = ys - cy, xs - cx
    radius = np.sqrt(dy**2 + dx**2)
    angle = np.arctan2(dy, dx)
    petals = rng.integers(4, 12)
    petal_phase = rng.uniform(0.0, 2 * np.pi)
    petal_contrast = rng.uniform(30.0, 120.0)
    flower = petal_contrast * np.maximum(
        np.cos(petals * angle + petal_phase), 0.0
    ) * np.exp(-radius / rng.uniform(0.15, 0.4))
    background = rng.uniform(30.0, 120.0) + rng.uniform(10.0, 80.0) * np.sin(
        2 * np.pi * rng.uniform(1.0, 6.0) * xs + rng.uniform(0.0, 2 * np.pi)
    ) * np.sin(2 * np.pi * rng.uniform(1.0, 6.0) * ys + rng.uniform(0.0, 2 * np.pi))
    noise = rng.normal(0.0, rng.uniform(1.0, 15.0), size=shape)
    return np.clip(background + flower + noise, 0.0, 255.0)


def image_to_blocks(image: np.ndarray, block: int = 8) -> np.ndarray:
    """Split an image into flattened ``block x block`` tiles.

    The image is cropped to a multiple of ``block`` in both dimensions.
    Returns shape ``(n_blocks, block*block)`` — the jpeg kernel's input
    layout (64 pixels per element).
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ConfigurationError("image must be 2-D grayscale")
    h = (image.shape[0] // block) * block
    w = (image.shape[1] // block) * block
    if h == 0 or w == 0:
        raise ConfigurationError(f"image smaller than one {block}x{block} block")
    cropped = image[:h, :w]
    tiles = cropped.reshape(h // block, block, w // block, block)
    tiles = tiles.transpose(0, 2, 1, 3).reshape(-1, block * block)
    return tiles


def extract_patches3x3(image: np.ndarray) -> np.ndarray:
    """All 3x3 neighborhoods (replicated-edge padding), flattened row-major.

    Returns shape ``(h*w, 9)`` — the sobel kernel's input layout.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ConfigurationError("image must be 2-D grayscale")
    padded = np.pad(image, 1, mode="edge")
    h, w = image.shape
    patches = np.empty((h * w, 9), dtype=float)
    idx = 0
    for dy in range(3):
        for dx in range(3):
            patches[:, idx] = padded[dy : dy + h, dx : dx + w].ravel()
            idx += 1
    return patches
