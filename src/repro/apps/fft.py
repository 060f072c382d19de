"""fft — radix-2 FFT twiddle computation (Signal Processing).

The NPU benchmark accelerates the twiddle-factor computation inside a
radix-2 Cooley–Tukey FFT: the kernel maps one normalized angle fraction
``x`` in [0, 1) to the complex twiddle ``(cos(-2*pi*x), sin(-2*pi*x))`` —
topology ``1 -> ... -> 2`` in Table 1.

Besides the element kernel this module ships a complete iterative radix-2
FFT (:func:`fft_transform`) that can consume an approximate twiddle kernel,
so integration tests and examples can measure end-to-end spectral error of
an approximated FFT.

Table 1: train/test = 5K random fp numbers, Rumba NN ``1->1->2``, NPU NN
``1->4->4->2``, metric = Mean Relative Error.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.apps.base import Application, mean_relative_error, relative_errors
from repro.errors import ConfigurationError
from repro.hardware.energy import InstructionMix
from repro.nn.mlp import Topology

__all__ = [
    "twiddle_kernel",
    "generate_fractions",
    "fft_transform",
    "make_application",
]


def twiddle_kernel(fractions: np.ndarray) -> np.ndarray:
    """Twiddle factors for angle fractions in [0, 1).

    Returns ``(n, 2)`` columns ``(cos(-2*pi*x), sin(-2*pi*x))``.
    """
    fractions = np.atleast_2d(np.asarray(fractions, dtype=float))
    if fractions.shape[1] != 1:
        raise ConfigurationError("twiddle kernel takes a single input column")
    angle = -2.0 * np.pi * fractions[:, 0]
    return np.column_stack([np.cos(angle), np.sin(angle)])


def generate_fractions(rng: np.random.Generator, n: int = 5000) -> np.ndarray:
    """Random angle fractions ("5K random fp numbers" in Table 1).

    A radix-2 decimation-in-time FFT only evaluates twiddles ``W_N^k`` for
    ``k < N/2``, i.e. fractions in ``[0, 0.5)`` — the same range
    :func:`fft_transform` requests.
    """
    return (0.5 * rng.random(n)).reshape(-1, 1)


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


def make_application() -> Application:
    """Construct the fft benchmark (Table 1 row 2)."""
    return Application(
        name="fft",
        domain="Signal Processing",
        kernel=twiddle_kernel,
        train_inputs=lambda rng: generate_fractions(rng, 5000),
        test_inputs=lambda rng: generate_fractions(rng, 5000),
        rumba_topology=Topology.parse("1->1->2"),
        npu_topology=Topology.parse("1->4->4->2"),
        metric_name="Mean Relative Error",  # relative to the unit twiddle magnitude
        element_error_fn=lambda a, e: relative_errors(a, e, epsilon=1.0),
        quality_metric_fn=lambda a, e: mean_relative_error(a, e, epsilon=1.0),
        # Small kernel, but sin+cos are long-latency library calls.
        instruction_mix=InstructionMix(
            int_ops=10, fp_ops=8, loads=6, stores=4, branches=4,
            transcendentals=2,
        ),
        offload_fraction=0.85,
        train_description="5K random fp numbers",
        test_description="5K random fp numbers",
    )
