"""Output-based error detection with an exponential moving average
(paper Sec. 3.2.3, Eq. 2).

EMA watches the stream of accelerator *outputs*: it keeps
``EMA = e * alpha + EMA_prev * (1 - alpha)`` with ``alpha = 2 / (1 + N)``
and scores each element by its distance from the running average *before*
the element is folded in.  Elements far from the recent trend are suspected
of large approximation error.

EMA needs no offline training, which is its appeal; its weakness (visible
in Figs. 10-13) is that legitimate signal transitions look like errors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.predictors.base import ErrorPredictor

__all__ = ["EMAPredictor"]


class EMAPredictor(ErrorPredictor):
    """The paper's ``EMA`` scheme.

    Parameters
    ----------
    history:
        ``N`` in the paper's smoothing-factor formula
        ``alpha = 2 / (1 + N)``.
    """

    name = "EMA"
    checker_kind = "ema"
    is_input_based = False
    needs_fit = False

    def __init__(self, history: int = 15):
        super().__init__()
        if history < 1:
            raise ConfigurationError("history must be at least 1")
        self.history = history
        #: Running average carried across invocations (None = unseeded).
        self._ema: Optional[float] = None

    @property
    def alpha(self) -> float:
        """The smoothing factor ``2 / (1 + N)``."""
        return 2.0 / (1.0 + self.history)

    def reset_state(self) -> None:
        self._ema = None

    def scores(self, features=None, approx_outputs=None, true_errors=None):
        if approx_outputs is None:
            raise ConfigurationError("EMA is output-based: needs approx_outputs")
        outputs = np.atleast_2d(np.asarray(approx_outputs, dtype=float))
        n = outputs.shape[0]
        if n == 0:
            return np.empty(0)
        # Reduce multi-output elements to one representative value per
        # element, then track its moving average in stream order.  The
        # average persists across invocations (Eq. 2 is an *online*
        # filter): only the very first element the predictor ever sees
        # seeds it — not each batch's first element, which would blind
        # the detector to element 0 and forget the trend between calls.
        stream = outputs.mean(axis=1)
        scores = np.empty(n, dtype=float)
        ema = self._ema
        alpha = self.alpha
        for i, value in enumerate(stream):
            if ema is None:
                # Seeding element: no history to deviate from.
                scores[i] = 0.0 if np.isfinite(value) else np.nan
            else:
                scores[i] = abs(value - ema)
            # Non-finite values fire unconditionally downstream; folding
            # them in would poison the average for every later element.
            if np.isfinite(value):
                ema = value if ema is None else value * alpha + ema * (1.0 - alpha)
        self._ema = ema
        return scores

    def coefficient_count(self) -> int:
        """Only alpha needs to be programmed."""
        return 1

    def coefficients(self):
        return [self.alpha]
