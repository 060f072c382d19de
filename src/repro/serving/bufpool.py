"""Size-classed float64 buffer pool for the serving hot path.

The serving tier moves every request through a short chain of arrays —
request inputs at admission, one contiguous batch per dispatch, one frame
payload per shm crossing.  At target rates that is tens of thousands of
allocations per second of identically-shaped arrays, so the pool leases
them from size-classed arenas instead: a lease rounds the element count up
to a power of two, reuses a free arena of that class (or allocates one),
and hands back a correctly-shaped view.  Releasing returns the arena to
its class's free list.

Discipline
----------
- A leased buffer is valid until released; release exactly once.
- Buffers whose lifetime escapes the server (e.g. outputs handed to
  callers inside ``ServeResult``) must NOT come from the pool — the pool
  is for bounded-lifetime transport buffers only.
- ``outstanding`` is the live-lease count; a leak shows up as a non-zero
  value after quiescence, which the chaos soak asserts against.

The pool is thread-safe; arenas are never shared between live leases, so
concurrent batches can never alias each other's memory.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["BufferPool"]

_MIN_CLASS = 64  # smallest arena, in float64 elements


def _size_class(n_elements: int) -> int:
    """Round up to the pool's power-of-two size class."""
    size = _MIN_CLASS
    while size < n_elements:
        size <<= 1
    return size


class BufferPool:
    """Reusable float64 arenas, size-classed by power-of-two element count.

    Parameters
    ----------
    max_free_per_class:
        Free arenas retained per size class; releases beyond this are
        dropped to the allocator (bounds idle memory).
    max_class_elements:
        Largest leaseable element count; bigger requests raise, because a
        runaway lease would silently pin huge arenas.
    """

    def __init__(
        self,
        max_free_per_class: int = 32,
        max_class_elements: int = 1 << 24,
    ):
        if max_free_per_class < 1:
            raise ConfigurationError("max_free_per_class must be >= 1")
        self._max_free = max_free_per_class
        self._max_elements = max_class_elements
        self._lock = threading.Lock()
        self._free: Dict[int, List[np.ndarray]] = {}
        # id(view) -> (view, backing arena).  The entry must hold the
        # view itself: keyed on id() alone, a caller that dropped a lease
        # without releasing would let the GC free the view, a later lease
        # could be allocated at the recycled id, and its entry would
        # silently overwrite this one — the leak vanishes from
        # ``outstanding`` and the old arena is lost.  Pinning the view
        # keeps every live id unique.
        self._live: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.leases = 0
        self.releases = 0
        self.hits = 0

    def lease(
        self, shape: Union[int, Tuple[int, ...]]
    ) -> np.ndarray:
        """A C-contiguous float64 array of ``shape``, backed by an arena.

        The contents are uninitialized (like ``np.empty``).
        """
        if isinstance(shape, int):
            shape = (shape,)
        n = 1
        for dim in shape:
            if dim <= 0:
                raise ConfigurationError(f"invalid lease shape {shape}")
            n *= int(dim)
        if n > self._max_elements:
            raise ConfigurationError(
                f"lease of {n} elements exceeds the pool cap "
                f"({self._max_elements})"
            )
        cls = _size_class(n)
        with self._lock:
            free = self._free.get(cls)
            if free:
                arena = free.pop()
                self.hits += 1
            else:
                arena = np.empty(cls, dtype=np.float64)
            view = arena[:n].reshape(shape)
            self._live[id(view)] = (view, arena)
            self.leases += 1
        return view

    def release(self, view: np.ndarray) -> None:
        """Return a leased buffer's arena to its free list.

        Raises on double release or on an array the pool never leased —
        silent acceptance would mask lease/release pairing bugs.
        """
        with self._lock:
            entry = self._live.pop(id(view), None)
            if entry is None:
                raise ConfigurationError(
                    "release of a buffer this pool does not own"
                )
            _, arena = entry
            self.releases += 1
            free = self._free.setdefault(arena.shape[0], [])
            if len(free) < self._max_free:
                free.append(arena)

    @property
    def outstanding(self) -> int:
        """Live leases (leases - releases); zero when quiescent."""
        with self._lock:
            return len(self._live)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "leases": self.leases,
                "releases": self.releases,
                "hits": self.hits,
                "outstanding": len(self._live),
                "free_arenas": sum(len(v) for v in self._free.values()),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BufferPool({self.stats()})"
