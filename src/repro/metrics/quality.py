"""Image-quality helpers used by the case studies (Fig. 2) and examples.

The Fig. 2 demonstration builds two corruptions of the same image with the
same *average* error but very different perceptual quality: errors
concentrated on few pixels (noticeable) versus spread across all pixels
(unnoticeable).  :func:`concentrated_error_image` and
:func:`spread_error_image` generate those, and PSNR quantifies the
difference alongside the identical mean-error number.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "psnr",
    "mean_error_fraction",
    "concentrated_error_image",
    "spread_error_image",
    "fig2_pair",
]


def mean_error_fraction(
    corrupted: np.ndarray, original: np.ndarray, scale: float = 255.0
) -> float:
    """Average per-pixel error as a fraction of the pixel range."""
    corrupted = np.asarray(corrupted, dtype=float)
    original = np.asarray(original, dtype=float)
    if corrupted.shape != original.shape:
        raise ConfigurationError("image shapes disagree")
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    return float(np.mean(np.abs(corrupted - original)) / scale)


def psnr(corrupted: np.ndarray, original: np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB (infinite for identical images)."""
    corrupted = np.asarray(corrupted, dtype=float)
    original = np.asarray(original, dtype=float)
    if corrupted.shape != original.shape:
        raise ConfigurationError("image shapes disagree")
    mse = float(np.mean((corrupted - original) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


def concentrated_error_image(
    image: np.ndarray,
    pixel_fraction: float = 0.10,
    pixel_error: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Fig. 2(b): ``pixel_fraction`` of pixels get up to ``pixel_error`` (of
    the pixel range) while the rest stay exact.

    With the defaults, 10% of the pixels are pushed as far as the pixel
    range allows (the full ``pixel_error`` when headroom permits, clipped
    otherwise) — few errors, but visually conspicuous.  Use
    :func:`fig2_pair` to build the matched-average comparison.
    """
    if not (0.0 <= pixel_fraction <= 1.0):
        raise ConfigurationError("pixel_fraction must be in [0, 1]")
    if not (0.0 <= pixel_error <= 1.0):
        raise ConfigurationError("pixel_error must be in [0, 1]")
    image = np.asarray(image, dtype=float)
    rng = np.random.default_rng(seed)
    out = image.copy()
    flat = out.ravel()
    n_hit = int(round(flat.size * pixel_fraction))
    hit = rng.choice(flat.size, size=n_hit, replace=False)
    # A 100%-of-range error moves the pixel to the far end of the range.
    delta = 255.0 * pixel_error
    flat[hit] = np.where(flat[hit] >= 127.5, flat[hit] - delta, flat[hit] + delta)
    out = np.clip(out, 0.0, 255.0)
    return out


def fig2_pair(
    image: np.ndarray, pixel_fraction: float = 0.10, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray, float]:
    """The Fig. 2 pair: concentrated vs spread errors with *matched* averages.

    Corrupting ``pixel_fraction`` of the pixels as hard as the pixel range
    allows yields some measured average error; the spread image is then
    generated with exactly that per-pixel error, so both images share one
    average error while differing wildly in perceptual quality.

    Returns ``(concentrated, spread, average_error_fraction)``.
    """
    image = np.asarray(image, dtype=float)
    concentrated = concentrated_error_image(image, pixel_fraction, 1.0, seed)
    average = mean_error_fraction(concentrated, image)
    spread = spread_error_image(image, pixel_error=average, seed=seed)
    return concentrated, spread, average


def spread_error_image(
    image: np.ndarray, pixel_error: float = 0.10, seed: int = 0
) -> np.ndarray:
    """Fig. 2(c): every pixel gets ``pixel_error`` of the range.

    With the default, all pixels have 10% error — the same 10% average as
    :func:`concentrated_error_image`'s default, but barely noticeable.
    """
    if not (0.0 <= pixel_error <= 1.0):
        raise ConfigurationError("pixel_error must be in [0, 1]")
    image = np.asarray(image, dtype=float)
    rng = np.random.default_rng(seed)
    delta = 255.0 * pixel_error
    signs = rng.choice([-1.0, 1.0], size=image.shape)
    # Flip the sign where the move would leave the pixel range so the error
    # magnitude is exact for every pixel.
    out = image + signs * delta
    too_high = out > 255.0
    too_low = out < 0.0
    out[too_high] = image[too_high] - delta
    out[too_low] = image[too_low] + delta
    return np.clip(out, 0.0, 255.0)
