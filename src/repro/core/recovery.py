"""The recovery module and output merger (paper Sec. 3.3) plus purity
verification (Sec. 2.2).

Recovery re-executes flagged iterations exactly on the host CPU and the
output merger commits the exact result over the accelerator's approximate
one.  Re-execution is only safe because the mapped code regions are *pure*;
:func:`verify_purity` checks that property dynamically the way prior
idempotence work does (re-run and compare, and confirm inputs are not
mutated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, PurityError

__all__ = [
    "RecoveryModule",
    "RecoveryResult",
    "merge_outputs",
    "verify_purity",
]


def merge_outputs(
    approx_outputs: np.ndarray,
    exact_outputs: np.ndarray,
    recovery_indices: np.ndarray,
) -> np.ndarray:
    """The output merger: exact rows replace approximate rows.

    ``exact_outputs`` holds only the re-executed rows, ordered like
    ``recovery_indices``.
    """
    approx_outputs = np.atleast_2d(np.asarray(approx_outputs, dtype=float))
    exact_outputs = np.atleast_2d(np.asarray(exact_outputs, dtype=float))
    recovery_indices = np.asarray(recovery_indices, dtype=int).ravel()
    if exact_outputs.shape[0] != recovery_indices.shape[0]:
        raise ConfigurationError(
            "exact_outputs row count must match recovery_indices"
        )
    if recovery_indices.size:
        if recovery_indices.min() < 0 or recovery_indices.max() >= approx_outputs.shape[0]:
            raise ConfigurationError("recovery index out of range")
    merged = approx_outputs.copy()
    merged[recovery_indices] = exact_outputs
    return merged


@dataclass
class RecoveryResult:
    """Outcome of recovering one invocation.

    ``merged_outputs[recovery_indices]`` are the re-executed (exact) rows;
    every other row is the accelerator's approximate output.
    """

    merged_outputs: np.ndarray
    recovery_indices: np.ndarray
    n_recovered: int

    @property
    def recovered_fraction(self) -> float:
        n = self.merged_outputs.shape[0]
        return self.n_recovered / n if n else 0.0


class RecoveryModule:
    """CPU-side re-execution of flagged iterations.

    Parameters
    ----------
    exact_kernel:
        The pure exact kernel ``(m, n_inputs) -> (m, n_outputs)``.
    verify:
        When True (default), purity of the kernel is dynamically verified
        on the first recovery.
    """

    def __init__(
        self,
        exact_kernel: Callable[[np.ndarray], np.ndarray],
        verify: bool = True,
    ):
        self.exact_kernel = exact_kernel
        self.verify = verify
        self._verified = False

    def recover(
        self,
        inputs: np.ndarray,
        approx_outputs: np.ndarray,
        recovery_bits: np.ndarray,
    ) -> RecoveryResult:
        """Re-execute flagged iterations and merge exact over approximate."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        approx_outputs = np.atleast_2d(np.asarray(approx_outputs, dtype=float))
        recovery_bits = np.asarray(recovery_bits, dtype=bool).ravel()
        if recovery_bits.shape[0] != inputs.shape[0]:
            raise ConfigurationError(
                "recovery bits must have one entry per iteration"
            )
        if inputs.shape[0] != approx_outputs.shape[0]:
            raise ConfigurationError("inputs/outputs row counts disagree")
        indices = np.flatnonzero(recovery_bits)
        if self.verify and not self._verified and inputs.shape[0] > 0:
            verify_purity(self.exact_kernel, inputs[: min(16, inputs.shape[0])])
            self._verified = True
        if indices.size == 0:
            # Nothing flagged: the merged output IS the approximate output.
            # Returning it unchanged (no defensive copy) is safe because
            # downstream consumers treat invocation outputs as immutable;
            # on a clean batch this saves a full-array copy per invocation.
            return RecoveryResult(
                merged_outputs=approx_outputs,
                recovery_indices=indices,
                n_recovered=0,
            )
        exact = np.atleast_2d(
            np.asarray(self.exact_kernel(inputs[indices]), dtype=float)
        )
        merged = merge_outputs(approx_outputs, exact, indices)
        return RecoveryResult(
            merged_outputs=merged,
            recovery_indices=indices,
            n_recovered=int(indices.size),
        )


def verify_purity(
    kernel: Callable[[np.ndarray], np.ndarray],
    sample_inputs: np.ndarray,
) -> None:
    """Dynamically verify a kernel is safely re-executable, raising
    :class:`PurityError` if it is not.

    Two properties are checked on a sample: (1) re-execution yields
    bit-identical outputs (determinism — no hidden state), and (2) the
    kernel does not mutate its input buffer.  These are the properties that
    make Rumba's selective re-execution side-effect free; accelerator-
    mapped regions must already satisfy them (Sec. 2.2).
    """
    sample_inputs = np.atleast_2d(np.asarray(sample_inputs, dtype=float))
    snapshot = sample_inputs.copy()
    first = np.asarray(kernel(sample_inputs), dtype=float)
    preserved = bool(np.array_equal(sample_inputs, snapshot))
    second = np.asarray(kernel(sample_inputs), dtype=float)
    deterministic = bool(np.array_equal(first, second))
    if not (deterministic and preserved):
        problems = []
        if not deterministic:
            problems.append("re-execution produced different outputs")
        if not preserved:
            problems.append("kernel mutated its inputs")
        raise PurityError(
            "kernel is not safely re-executable: " + "; ".join(problems)
        )
