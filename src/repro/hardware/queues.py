"""Core ↔ accelerator queue models: the config queue.

The Rumba block diagram (Fig. 4) connects the CPU and the accelerator with
I/O queues for data, a config queue for accelerator and checker
coefficients, and a *recovery queue* that carries one recovery bit per
iteration from the detection module back to the CPU.  Only the config
queue is an object here — the runtime ships checker coefficients through
a :class:`ConfigQueue`.  The I/O queues are the arrays an invocation is
called with, and the recovery queue is the bits vector
``DetectionModule.detect_into`` returns plus the FIFO service order of
:func:`repro.core.pipeline.simulate_pipeline`.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Tuple

__all__ = ["ConfigQueue"]


class ConfigQueue:
    """The configuration channel (accelerator weights + checker coefficients).

    The same queue transfers the accelerator configuration and the checker
    coefficients (Sec. 3.2, "Predictor Hardware").  ``sent`` keeps each
    ``(label, words)`` payload in transfer order, so the receiving side
    (and the tests) can verify the checker was programmed with the
    coefficients the trainer produced.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.words_transferred = 0
        self.sent: List[Tuple[str, List[float]]] = []

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_mutex"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._mutex = threading.Lock()

    def send(self, label: str, words: Iterable[float]) -> int:
        """Send a coefficient payload; returns its word count."""
        values = [float(w) for w in words]
        count = len(values)
        with self._mutex:
            self.words_transferred += count
            self.sent.append((label, values))
        return count
