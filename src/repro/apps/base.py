"""Application abstraction for the benchmark suite (paper Table 1).

Every benchmark contributes a *pure kernel* — the code region that gets
mapped to the approximate accelerator.  Purity (reads inputs, writes outputs,
touches nothing else) is what makes Rumba's selective re-execution safe, and
it is enforced structurally here: kernels are functions from an input matrix
to an output matrix with no other state.

An :class:`Application` bundles:

* the exact kernel (vectorized: ``(n, n_inputs) -> (n, n_outputs)``),
* train/test input generators matching Table 1's data sizes,
* the Rumba and unchecked-NPU topologies from Table 1,
* the application-specific quality metric (mean relative error, mismatch
  count, mean pixel diff, ...),
* a per-element error function used by the Ideal oracle and the CDF
  analysis, and
* the CPU instruction mix of one kernel iteration plus the fraction of the
  whole application that the kernel represents (used by the energy/speedup
  models).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.energy import InstructionMix
from repro.nn.mlp import Topology

__all__ = [
    "Application",
    "relative_errors",
    "mean_relative_error",
    "mismatch_errors",
    "mismatch_fraction",
    "absolute_errors",
    "mean_absolute_diff",
]

# --------------------------------------------------------------------- #
# Error metrics (Table 1, "Evaluation Metric" column)                   #
# --------------------------------------------------------------------- #


def _matched(approx, exact) -> Tuple[np.ndarray, np.ndarray]:
    """Both as 2-D float arrays, which must have one shape."""
    approx = np.atleast_2d(np.asarray(approx, dtype=float))
    exact = np.atleast_2d(np.asarray(exact, dtype=float))
    if approx.shape != exact.shape:
        raise ConfigurationError(
            f"shape mismatch: approx {approx.shape} vs exact {exact.shape}"
        )
    return approx, exact


def relative_errors(
    approx: np.ndarray, exact: np.ndarray, epsilon: float = 1e-6
) -> np.ndarray:
    """Per-element relative error ``|approx - exact| / max(|exact|, eps)``.

    Multi-output elements are reduced with the mean over outputs, giving one
    error per kernel iteration (per output element in the paper's sense).
    """
    approx, exact = _matched(approx, exact)
    denom = np.maximum(np.abs(exact), epsilon)
    return np.mean(np.abs(approx - exact) / denom, axis=1)


def mean_relative_error(
    approx: np.ndarray, exact: np.ndarray, epsilon: float = 1e-6
) -> float:
    """Mean Relative Error metric (blackscholes, fft, inversek2j)."""
    return float(np.mean(relative_errors(approx, exact, epsilon)))


def mismatch_errors(approx: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Per-element 0/1 classification mismatch (jmeint).

    Both arrays are decision scores; the decision is ``argmax`` across the
    output columns (the NPU's two-output one-hot encoding).
    """
    approx, exact = _matched(approx, exact)
    if approx.shape[1] == 1:
        return (np.round(approx[:, 0]) != np.round(exact[:, 0])).astype(float)
    return (np.argmax(approx, axis=1) != np.argmax(exact, axis=1)).astype(float)


def mismatch_fraction(approx: np.ndarray, exact: np.ndarray) -> float:
    """Fraction of mismatching decisions ("# of mismatches" metric)."""
    return float(np.mean(mismatch_errors(approx, exact)))


def absolute_errors(
    approx: np.ndarray, exact: np.ndarray, scale: float = 1.0
) -> np.ndarray:
    """Per-element mean absolute difference, normalized by ``scale``.

    With ``scale=255`` this is the per-pixel version of the Mean Pixel Diff
    metric (jpeg, sobel); with the output range it is kmeans' Mean Output
    Diff.
    """
    approx, exact = _matched(approx, exact)
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    return np.mean(np.abs(approx - exact), axis=1) / scale


def mean_absolute_diff(
    approx: np.ndarray, exact: np.ndarray, scale: float = 1.0
) -> float:
    """Mean Pixel Diff / Mean Output Diff metric."""
    return float(np.mean(absolute_errors(approx, exact, scale)))


# --------------------------------------------------------------------- #
# Application                                                           #
# --------------------------------------------------------------------- #


@dataclass
class Application:
    """One benchmark from Table 1.

    Attributes
    ----------
    name, domain:
        Identification (Table 1 columns 1-2).
    kernel:
        The exact pure kernel, vectorized over elements.
    train_inputs, test_inputs:
        Callables ``rng -> inputs`` producing Table 1's train/test data.
    rumba_topology, npu_topology:
        NN topologies (Table 1 columns "NN Topology (Rumba)" / "(NPU)").
    metric_name:
        Human-readable metric name from Table 1.
    element_error_fn:
        ``(approx, exact) -> per-element errors`` in [0, inf).
    quality_metric_fn:
        ``(approx, exact) -> scalar application error`` in [0, 1]-ish.
    instruction_mix:
        CPU cost of one exact kernel iteration.
    offload_fraction:
        Fraction of baseline whole-application time/energy spent inside the
        kernel (Amdahl term for whole-app energy/speedup).
    rumba_input_columns:
        Column subset the Rumba NN consumes when its input width is smaller
        than the kernel signature (blackscholes: PARSEC holds three of the
        six option fields effectively constant, so Rumba's trainer selects
        the three informative columns).
    """

    name: str
    domain: str
    kernel: Callable[[np.ndarray], np.ndarray]
    train_inputs: Callable[[np.random.Generator], np.ndarray]
    test_inputs: Callable[[np.random.Generator], np.ndarray]
    rumba_topology: Topology
    npu_topology: Topology
    metric_name: str
    element_error_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    quality_metric_fn: Callable[[np.ndarray, np.ndarray], float]
    instruction_mix: InstructionMix
    offload_fraction: float = 0.8
    rumba_input_columns: Optional[Tuple[int, ...]] = None
    train_description: str = ""
    test_description: str = ""

    def __post_init__(self) -> None:
        if not (0.0 < self.offload_fraction <= 1.0):
            raise ConfigurationError("offload_fraction must be in (0, 1]")
        if self.rumba_input_columns is not None:
            if len(self.rumba_input_columns) != self.rumba_topology.n_inputs:
                raise ConfigurationError(
                    f"{self.name}: rumba_input_columns has "
                    f"{len(self.rumba_input_columns)} columns but the Rumba "
                    f"topology expects {self.rumba_topology.n_inputs} inputs"
                )
        if self.rumba_topology.n_outputs != self.npu_topology.n_outputs:
            raise ConfigurationError(
                f"{self.name}: Rumba and NPU topologies disagree on outputs"
            )

    @property
    def n_kernel_inputs(self) -> int:
        """Width of the kernel's input signature (== NPU topology inputs)."""
        return self.npu_topology.n_inputs

    @property
    def n_outputs(self) -> int:
        return self.npu_topology.n_outputs

    def exact(self, inputs: np.ndarray) -> np.ndarray:
        """Run the exact kernel; output is always 2-D ``(n, n_outputs)``."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.shape[1] != self.n_kernel_inputs:
            raise ConfigurationError(
                f"{self.name}: kernel expects {self.n_kernel_inputs} inputs, "
                f"got shape {inputs.shape}"
            )
        out = np.asarray(self.kernel(inputs), dtype=float)
        if out.ndim == 1:
            out = out.reshape(-1, self.n_outputs)
        return out

    def element_errors(self, approx: np.ndarray, exact: np.ndarray) -> np.ndarray:
        """Per-element error magnitudes (for the Ideal oracle and CDFs)."""
        return self.element_error_fn(approx, exact)

    def output_error(self, approx: np.ndarray, exact: np.ndarray) -> float:
        """Application-level output error under the Table 1 metric."""
        return self.quality_metric_fn(approx, exact)

    def __reduce_ex__(self, protocol):
        # Kernels and input generators are closures, which pickle cannot
        # serialize.  Registry-built applications are deterministic to
        # reconstruct, so they pickle *by name* — the receiving process
        # rebuilds an identical instance from the registry.  Hand-built
        # applications fall back to default pickling (and fail loudly if
        # they hold lambdas, as before).
        if getattr(self, "_registry_backed", False):
            from repro.apps.registry import get_application

            return (get_application, (self.name,))
        return super().__reduce_ex__(protocol)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Application({self.name!r}, rumba={self.rumba_topology}, "
            f"npu={self.npu_topology})"
        )
