"""jpeg — lossy 8x8 block compression kernel (Compression).

The accelerated region is JPEG's per-block pipeline: level shift, 2-D DCT,
quantization against the standard luminance table, de-quantization, inverse
DCT and level un-shift.  The kernel maps one flattened 8x8 block (64
pixels) to its reconstructed 64 pixels — the same 64->64 signature as
Table 1's topologies.  The quality metric is Mean Pixel Diff (normalized
to the 255 pixel range).

Table 1: train = 220x200 image, test = 512x512 image, Rumba and NPU NN
``64->16->64``, metric = Mean Pixel Diff.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application, absolute_errors, mean_absolute_diff
from repro.apps.datasets import image_to_blocks, natural_image
from repro.errors import ConfigurationError
from repro.hardware.energy import InstructionMix
from repro.nn.mlp import Topology

__all__ = [
    "STANDARD_LUMINANCE_QTABLE",
    "dct2_block",
    "idct2_block",
    "jpeg_block_kernel",
    "make_application",
]

#: The JPEG standard (Annex K) luminance quantization table.
STANDARD_LUMINANCE_QTABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=float,
)


def _dct_matrix(n: int = 8) -> np.ndarray:
    """Orthonormal DCT-II basis matrix."""
    k = np.arange(n).reshape(-1, 1)
    i = np.arange(n).reshape(1, -1)
    mat = np.sqrt(2.0 / n) * np.cos((2 * i + 1) * k * np.pi / (2 * n))
    mat[0, :] = np.sqrt(1.0 / n)
    return mat


_DCT8 = _dct_matrix(8)


def dct2_block(blocks: np.ndarray) -> np.ndarray:
    """2-D DCT-II of flattened 8x8 blocks, shape-preserving ``(n, 64)``."""
    blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
    if blocks.shape[1] != 64:
        raise ConfigurationError("jpeg blocks must have 64 pixels")
    tiles = blocks.reshape(-1, 8, 8)
    coeffs = _DCT8 @ tiles @ _DCT8.T
    return coeffs.reshape(-1, 64)


def idct2_block(coeffs: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT of flattened coefficient blocks."""
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    if coeffs.shape[1] != 64:
        raise ConfigurationError("jpeg coefficient blocks must have 64 entries")
    tiles = coeffs.reshape(-1, 8, 8)
    pixels = _DCT8.T @ tiles @ _DCT8
    return pixels.reshape(-1, 64)


def jpeg_block_kernel(blocks: np.ndarray, quality_scale: float = 1.0) -> np.ndarray:
    """The lossy per-block pipeline: DCT -> quantize -> dequantize -> IDCT.

    ``quality_scale`` multiplies the quantization table (>1 is coarser).
    Input and output are flattened 64-pixel blocks in [0, 255].
    """
    if quality_scale <= 0:
        raise ConfigurationError("quality_scale must be positive")
    blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
    shifted = blocks - 128.0
    coeffs = dct2_block(shifted)
    qtable = (STANDARD_LUMINANCE_QTABLE * quality_scale).reshape(1, 64)
    quantized = np.round(coeffs / qtable)
    recon = idct2_block(quantized * qtable) + 128.0
    return np.clip(recon, 0.0, 255.0)


def _train_blocks(rng: np.random.Generator) -> np.ndarray:
    """Blocks of the 220x200 training image (Table 1)."""
    seed = int(rng.integers(0, 2**31 - 1))
    return image_to_blocks(natural_image((220, 200), seed=seed, detail=0.3))


def _test_blocks(rng: np.random.Generator) -> np.ndarray:
    """Blocks of the 512x512 test image (Table 1)."""
    seed = int(rng.integers(0, 2**31 - 1)) + 1
    return image_to_blocks(natural_image((512, 512), seed=seed, detail=1.8))


def make_application() -> Application:
    """Construct the jpeg benchmark (Table 1 row 5)."""
    return Application(
        name="jpeg",
        domain="Compression",
        kernel=jpeg_block_kernel,
        train_inputs=_train_blocks,
        test_inputs=_test_blocks,
        rumba_topology=Topology.parse("64->16->64"),
        npu_topology=Topology.parse("64->16->64"),
        metric_name="Mean Pixel Diff",
        element_error_fn=lambda a, e: absolute_errors(a, e, scale=255.0),
        quality_metric_fn=lambda a, e: mean_absolute_diff(a, e, scale=255.0),
        # ~1.3K dynamic instructions per 64-pixel block (two 8x8 matrix
        # triple products plus quantization rounding).
        instruction_mix=InstructionMix(
            int_ops=400, fp_ops=550, loads=200, stores=70, branches=80,
        ),
        offload_fraction=0.9,
        train_description="220x200 pixel image",
        test_description="512x512 pixel image",
    )
