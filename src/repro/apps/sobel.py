"""sobel — 3x3 edge-detection filter (Image Processing).

The kernel maps one 3x3 pixel neighborhood to the Sobel gradient magnitude,
clamped to the pixel range — a pure ``9 -> 1`` map over the image, matching
Table 1's ``9->8->1`` topology.  The metric is Mean Pixel Diff.

Table 1: train = 512x512 image, test = 512x512 image, Rumba and NPU NN
``9->8->1``, metric = Mean Pixel Diff.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application, absolute_errors, mean_absolute_diff
from repro.apps.datasets import extract_patches3x3, natural_image
from repro.errors import ConfigurationError
from repro.hardware.energy import InstructionMix
from repro.nn.mlp import Topology

__all__ = ["sobel_kernel", "make_application", "KERNEL_X", "KERNEL_Y"]

#: Sobel convolution masks, flattened row-major to match the patch layout.
KERNEL_X = np.array([-1, 0, 1, -2, 0, 2, -1, 0, 1], dtype=float)
KERNEL_Y = np.array([-1, -2, -1, 0, 0, 0, 1, 2, 1], dtype=float)


def sobel_kernel(patches: np.ndarray) -> np.ndarray:
    """Gradient magnitude of flattened 3x3 patches, clamped to [0, 255].

    The benchmark's kernel normalizes the magnitude by the mask gain so the
    output stays within the pixel range.
    """
    patches = np.atleast_2d(np.asarray(patches, dtype=float))
    if patches.shape[1] != 9:
        raise ConfigurationError("sobel kernel takes flattened 3x3 patches")
    gx = patches @ KERNEL_X
    gy = patches @ KERNEL_Y
    magnitude = np.sqrt(gx * gx + gy * gy) / 4.0
    return np.clip(magnitude, 0.0, 255.0).reshape(-1, 1)


def _train_patches(rng: np.random.Generator) -> np.ndarray:
    seed = int(rng.integers(0, 2**31 - 1))
    return extract_patches3x3(natural_image((512, 512), seed=seed, detail=0.3))


def _test_patches(rng: np.random.Generator) -> np.ndarray:
    seed = int(rng.integers(0, 2**31 - 1)) + 1
    return extract_patches3x3(natural_image((512, 512), seed=seed, detail=1.8))


def make_application() -> Application:
    """Construct the sobel benchmark (Table 1 row 7)."""
    return Application(
        name="sobel",
        domain="Image Processing",
        kernel=sobel_kernel,
        train_inputs=_train_patches,
        test_inputs=_test_patches,
        rumba_topology=Topology.parse("9->8->1"),
        npu_topology=Topology.parse("9->8->1"),
        metric_name="Mean Pixel Diff",
        element_error_fn=lambda a, e: absolute_errors(a, e, scale=255.0),
        quality_metric_fn=lambda a, e: mean_absolute_diff(a, e, scale=255.0),
        # ~88 dynamic instructions per pixel: two 9-tap dot products plus
        # address arithmetic, clamping and a sqrt.
        instruction_mix=InstructionMix(
            int_ops=35, fp_ops=25, loads=12, stores=2, branches=12,
            transcendentals=1,
        ),
        offload_fraction=0.85,
        train_description="512x512 pixel image",
        test_description="512x512 pixel image",
    )
