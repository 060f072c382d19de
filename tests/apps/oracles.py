"""Whole-application drivers and structured images the tests compare
against.

The product runs each application one kernel batch at a time; these run
the surrounding application (a whole FFT, image or arm) so a test can
check the kernel inside it end to end, and give the corner-case images
the kernels are probed with.
"""

from typing import Callable, Optional, Tuple

import numpy as np

from repro.apps.datasets import extract_patches3x3, image_to_blocks
from repro.apps.fft import twiddle_kernel
from repro.apps.inversek2j import LINK1, LINK2
from repro.apps.jpeg import jpeg_block_kernel
from repro.apps.sobel import sobel_kernel
from repro.errors import ConfigurationError


def checkerboard(
    shape: Tuple[int, int] = (64, 64), tile: int = 8, low: float = 40.0,
    high: float = 215.0,
) -> np.ndarray:
    """A two-level checkerboard — worst case for perforation and DCT."""
    if tile <= 0:
        raise ConfigurationError("tile must be positive")
    ys, xs = np.mgrid[0 : shape[0], 0 : shape[1]]
    mask = ((ys // tile) + (xs // tile)) % 2 == 0
    return np.where(mask, high, low).astype(float)


def gradient_image(shape: Tuple[int, int] = (64, 64)) -> np.ndarray:
    """A pure horizontal ramp from 0 to 255."""
    _, xs = np.mgrid[0 : shape[0], 0 : shape[1]]
    return xs / max(shape[1] - 1, 1) * 255.0


def blocks_to_image(
    blocks: np.ndarray, image_shape: Tuple[int, int], block: int = 8
) -> np.ndarray:
    """Inverse of :func:`~repro.apps.datasets.image_to_blocks` for a
    cropped image shape."""
    blocks = np.asarray(blocks, dtype=float)
    h = (image_shape[0] // block) * block
    w = (image_shape[1] // block) * block
    expected = (h // block) * (w // block)
    if blocks.shape != (expected, block * block):
        raise ConfigurationError(
            f"blocks shape {blocks.shape} does not tile image {image_shape}"
        )
    tiles = blocks.reshape(h // block, w // block, block, block)
    return tiles.transpose(0, 2, 1, 3).reshape(h, w)


def fft_transform(
    signal: np.ndarray,
    twiddle_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT.

    ``twiddle_fn`` defaults to the exact :func:`twiddle_kernel`; pass an
    approximate kernel (e.g. a trained NPU backend) to run the FFT with
    approximated twiddles.  The signal length must be a power of two.
    Returns a complex spectrum matching ``numpy.fft.fft`` when exact.
    """
    signal = np.asarray(signal)
    n = signal.shape[0]
    if n == 0 or (n & (n - 1)) != 0:
        raise ConfigurationError(f"FFT length must be a power of two, got {n}")
    twiddle_fn = twiddle_fn or twiddle_kernel

    # Bit-reversal permutation.
    levels = n.bit_length() - 1
    indices = np.arange(n)
    reversed_idx = np.zeros(n, dtype=int)
    for bit in range(levels):
        reversed_idx |= ((indices >> bit) & 1) << (levels - 1 - bit)
    data = signal[reversed_idx].astype(complex)

    size = 2
    while size <= n:
        half = size // 2
        fractions = (np.arange(half) / size).reshape(-1, 1)
        tw = twiddle_fn(fractions)
        w = tw[:, 0] + 1j * tw[:, 1]
        for start in range(0, n, size):
            upper = data[start : start + half].copy()
            lower = data[start + half : start + size] * w
            data[start : start + half] = upper + lower
            data[start + half : start + size] = upper - lower
        size *= 2
    return data


def forward_kinematics(angles: np.ndarray) -> np.ndarray:
    """End-effector position for joint angles ``(theta1, theta2)``: the
    inverse of inversek2j's kernel."""
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    if angles.shape[1] != 2:
        raise ConfigurationError("forward kinematics takes (theta1, theta2)")
    t1, t2 = angles[:, 0], angles[:, 1]
    x = LINK1 * np.cos(t1) + LINK2 * np.cos(t1 + t2)
    y = LINK1 * np.sin(t1) + LINK2 * np.sin(t1 + t2)
    return np.column_stack([x, y])


def compress_image(
    image: np.ndarray,
    block_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Run the whole jpeg application over a grayscale image.

    ``block_fn`` defaults to the exact kernel; pass an approximate kernel to
    get the accelerated pipeline.  Returns the reconstructed (cropped to a
    block multiple) image.
    """
    image = np.asarray(image, dtype=float)
    blocks = image_to_blocks(image, block=8)
    out_blocks = np.asarray((block_fn or jpeg_block_kernel)(blocks), dtype=float)
    return blocks_to_image(out_blocks, image.shape, block=8)


def sobel_image(image: np.ndarray, kernel=sobel_kernel) -> np.ndarray:
    """Whole-application run: edge map of a grayscale image."""
    image = np.asarray(image, dtype=float)
    out = np.asarray(kernel(extract_patches3x3(image)), dtype=float)
    return out.reshape(image.shape)
