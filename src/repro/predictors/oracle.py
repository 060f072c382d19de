"""The Ideal oracle scheme (paper Sec. 5.1).

Ideal has perfect knowledge of every element's true approximation error.
Fixing the top-``x%`` of elements under Ideal's scores is the best any
detection scheme can do, so Ideal bounds every plot in Figs. 10-15; it has
zero false positives and 100% large-error coverage by construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.predictors.base import ErrorPredictor

__all__ = ["OraclePredictor"]


class OraclePredictor(ErrorPredictor):
    """Scores equal the true per-element errors (oracle knowledge)."""

    name = "Ideal"
    checker_kind = "none"
    is_input_based = False
    needs_fit = False
    online_state = False

    def scores(self, features=None, approx_outputs=None, true_errors=None):
        if true_errors is None:
            raise ConfigurationError("the Ideal oracle needs true_errors")
        errors = np.asarray(true_errors, dtype=float).ravel()
        if not np.all(np.isfinite(errors)):
            raise ConfigurationError("true errors must be finite")
        return errors
