"""Core ↔ accelerator queue models (input, output, config, recovery).

The Rumba block diagram (Fig. 4) connects the CPU and the accelerator with
I/O queues for data, a config queue for accelerator and checker
coefficients, and a *recovery queue* that carries one recovery bit per
iteration from the detection module back to the CPU.

These are functional FIFO models with occupancy accounting: the runtime
ships checker coefficients through a :class:`ConfigQueue`, the serving
layer's bounded recovery backlog is a :class:`FifoQueue`, and the tests use
them to check ordering and loss-freedom invariants.  All mutating operations
are guarded by a per-queue re-entrant lock so the serving layer's worker
threads can share a queue without corrupting the deque or the statistics.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Generic, Iterable, List, Optional, Tuple, TypeVar

from repro.errors import ConfigurationError, SimulationError

__all__ = ["FifoQueue", "RecoveryQueue", "ConfigQueue", "QueueStats"]

T = TypeVar("T")


@dataclass
class QueueStats:
    """Occupancy statistics collected by a queue over its lifetime."""

    pushes: int = 0
    pops: int = 0
    max_occupancy: int = 0
    stall_events: int = 0

    @property
    def occupancy(self) -> int:
        return self.pushes - self.pops


class FifoQueue(Generic[T]):
    """A bounded FIFO with occupancy statistics.

    ``push`` on a full queue raises :class:`SimulationError` when
    ``strict=True`` (the default) or records a stall event and drops into
    blocking semantics otherwise (the caller is expected to retry).
    :meth:`try_push` never raises regardless of strictness — it returns
    False on a full queue, which is the contract concurrent producers
    should use.

    Push/pop/peek/drain and the statistics they maintain are serialized on
    an internal re-entrant lock, so one queue instance may be shared by
    several threads (the serving layer's workers do exactly that).
    """

    def __init__(self, capacity: int = 64, name: str = "fifo", strict: bool = True):
        if capacity <= 0:
            raise ConfigurationError("queue capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.strict = strict
        self._items: Deque[T] = deque()
        self._mutex = threading.RLock()
        self.stats = QueueStats()

    def __getstate__(self) -> dict:
        # Locks do not survive pickling (the process-backend serving layer
        # ships queues across the fork/spawn boundary); contents and
        # statistics do.
        state = self.__dict__.copy()
        del state["_mutex"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._mutex = threading.RLock()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._items)

    @property
    def is_full(self) -> bool:
        with self._mutex:
            return len(self._items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        with self._mutex:
            return not self._items

    def _append(self, item: T) -> None:
        self._items.append(item)
        self.stats.pushes += 1
        self.stats.max_occupancy = max(self.stats.max_occupancy, len(self._items))

    def push(self, item: T) -> bool:
        """Append an item; returns False (and records a stall) when full."""
        with self._mutex:
            if len(self._items) >= self.capacity:
                self.stats.stall_events += 1
                if self.strict:
                    raise SimulationError(
                        f"queue {self.name!r} overflow (capacity {self.capacity})"
                    )
                return False
            self._append(item)
            return True

    def try_push(self, item: T) -> bool:
        """Append an item if there is room; never raises.

        Returns True when the item was enqueued, False when the queue is
        full (a stall event is recorded either way the push fails).  This
        is the entry point concurrent producers should use: unlike
        :meth:`push` it does not depend on the queue's ``strict`` flag, so
        a full queue is an ordinary, observable outcome rather than an
        exception.
        """
        with self._mutex:
            if len(self._items) >= self.capacity:
                self.stats.stall_events += 1
                return False
            self._append(item)
            return True

    def pop(self) -> T:
        """Remove and return the oldest item."""
        with self._mutex:
            if not self._items:
                raise SimulationError(f"pop from empty queue {self.name!r}")
            self.stats.pops += 1
            return self._items.popleft()

    def try_pop(self) -> Optional[T]:
        """Remove and return the oldest item, or None when empty."""
        with self._mutex:
            if not self._items:
                return None
            self.stats.pops += 1
            return self._items.popleft()

    def peek(self) -> T:
        with self._mutex:
            if not self._items:
                raise SimulationError(f"peek on empty queue {self.name!r}")
            return self._items[0]

    def drain(self) -> List[T]:
        """Pop everything, oldest first."""
        with self._mutex:
            out: List[T] = list(self._items)
            self.stats.pops += len(self._items)
            self._items.clear()
        return out


class RecoveryQueue:
    """The recovery-bit channel between the detection module and the CPU.

    Entries are ``(iteration_id, recovery_bit)`` pairs pushed in iteration
    order by the accelerator-side detector.  The CPU pops them in order and
    re-executes iterations whose bit is set.  ``pending_recoveries`` exposes
    how many set bits are waiting — the online tuner's Quality mode uses
    this as its CPU-utilization signal.

    The queue shares its FIFO's lock so the pending-set-bit count stays
    consistent with the entries even when producer and consumer live on
    different threads.
    """

    def __init__(self, capacity: int = 256, strict: bool = True):
        self._fifo: FifoQueue[Tuple[int, bool]] = FifoQueue(
            capacity=capacity, name="recovery", strict=strict
        )
        self._mutex = self._fifo._mutex
        self._pending_set_bits = 0
        self._last_pushed_id: Optional[int] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_mutex"]  # rebound to the (restored) FIFO's lock
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._mutex = self._fifo._mutex

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def capacity(self) -> int:
        return self._fifo.capacity

    @property
    def stats(self) -> QueueStats:
        return self._fifo.stats

    @property
    def pending_recoveries(self) -> int:
        """Number of queued iterations whose recovery bit is set."""
        return self._pending_set_bits

    def push(self, iteration_id: int, recovery_bit: bool) -> bool:
        """Record the detector's verdict for one iteration.

        Iteration ids must be strictly increasing — the detector sees
        iterations in order.
        """
        with self._mutex:
            if self._last_pushed_id is not None and iteration_id <= self._last_pushed_id:
                raise SimulationError(
                    f"recovery queue push out of order: {iteration_id} after "
                    f"{self._last_pushed_id}"
                )
            ok = self._fifo.push((iteration_id, bool(recovery_bit)))
            if ok:
                self._last_pushed_id = iteration_id
                if recovery_bit:
                    self._pending_set_bits += 1
            return ok

    def push_many(self, iteration_ids, recovery_bits) -> int:
        """Bulk variant of :meth:`push`: one lock acquisition per invocation.

        ``iteration_ids`` and ``recovery_bits`` are parallel sequences (the
        detector's verdicts for one invocation, in iteration order).  The
        same invariants as element-wise pushes hold: ids must be strictly
        increasing and continue past the last pushed id, and capacity is
        enforced exactly as :meth:`push` would — entries are appended until
        the queue fills, at which point a stall is recorded and, under
        ``strict`` FIFO semantics, :class:`SimulationError` is raised.
        Returns the number of entries enqueued.
        """
        ids = [int(i) for i in iteration_ids]
        bits = [bool(b) for b in recovery_bits]
        if len(ids) != len(bits):
            raise ConfigurationError(
                "iteration_ids and recovery_bits must have equal length"
            )
        if not ids:
            return 0
        with self._mutex:
            previous = self._last_pushed_id
            for iteration_id in ids:
                if previous is not None and iteration_id <= previous:
                    raise SimulationError(
                        f"recovery queue push out of order: {iteration_id} "
                        f"after {previous}"
                    )
                previous = iteration_id
            fifo = self._fifo
            room = fifo.capacity - len(fifo._items)
            n_accepted = min(room, len(ids))
            if n_accepted:
                fifo._items.extend(zip(ids[:n_accepted], bits[:n_accepted]))
                fifo.stats.pushes += n_accepted
                fifo.stats.max_occupancy = max(
                    fifo.stats.max_occupancy, len(fifo._items)
                )
                self._last_pushed_id = ids[n_accepted - 1]
                self._pending_set_bits += sum(bits[:n_accepted])
            if n_accepted < len(ids):
                fifo.stats.stall_events += 1
                if fifo.strict:
                    raise SimulationError(
                        f"queue {fifo.name!r} overflow "
                        f"(capacity {fifo.capacity})"
                    )
            return n_accepted

    def pop(self) -> Tuple[int, bool]:
        with self._mutex:
            iteration_id, bit = self._fifo.pop()
            if bit:
                self._pending_set_bits -= 1
            return iteration_id, bit

    @property
    def is_empty(self) -> bool:
        return self._fifo.is_empty

    def drain_flagged(self) -> List[int]:
        """Pop all entries and return ids of iterations needing recovery."""
        with self._mutex:
            items = list(self._fifo._items)
            self._fifo._items.clear()
            self._fifo.stats.pops += len(items)
            self._pending_set_bits = 0
            return [iteration_id for iteration_id, bit in items if bit]


class ConfigQueue:
    """The configuration channel (accelerator weights + checker coefficients).

    The same queue transfers the accelerator configuration and the checker
    coefficients (Sec. 3.2, "Predictor Hardware").  Word counts drive the
    per-kernel-launch energy charge; the payload values themselves are
    retained so the receiving side (and the tests) can verify the checker
    was programmed with the coefficients the trainer produced.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.words_transferred = 0
        self._payloads: List[Tuple[str, int]] = []
        self._values: List[Tuple[str, List[float]]] = []

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
            self._payloads.append((label, count))
            self._values.append((label, values))
        return count

    @property
    def payloads(self) -> List[Tuple[str, int]]:
        with self._mutex:
            return list(self._payloads)

    def received(self, label: str) -> List[float]:
        """The words delivered for ``label``, in transfer order.

        Multiple sends under the same label concatenate, mirroring a FIFO
        drained by the consumer.
        """
        with self._mutex:
            out: List[float] = []
            for sent_label, values in self._values:
                if sent_label == label:
                    out.extend(values)
            return out
