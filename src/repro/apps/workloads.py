"""Invocation-stream workload generator.

The online loop (``python -m repro monitor``) runs over a *stream* of
accelerator invocations rather than one big batch.
:func:`invocation_stream` produces one for any Table 1 benchmark: i.i.d.
chunks of the benchmark's own test distribution.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.apps.base import Application
from repro.errors import ConfigurationError

__all__ = ["invocation_stream"]


def invocation_stream(
    app: Application,
    n_invocations: int,
    invocation_size: int,
    seed: int = 0,
) -> List[np.ndarray]:
    """i.i.d. invocations drawn from the benchmark's test distribution."""
    if n_invocations <= 0 or invocation_size <= 0:
        raise ConfigurationError("stream dimensions must be positive")
    rng = np.random.default_rng(seed)
    chunks: List[np.ndarray] = []
    buffer = np.empty((0, app.n_kernel_inputs))
    while len(chunks) < n_invocations:
        if buffer.shape[0] < invocation_size:
            fresh = np.atleast_2d(np.asarray(app.test_inputs(rng), dtype=float))
            buffer = np.vstack([buffer, fresh])
            continue
        chunks.append(buffer[:invocation_size])
        buffer = buffer[invocation_size:]
    return chunks
