"""Where the thread backend's threads run: one CPU, held while serving.

One interpreter runs Python on one CPU at a time; left free, the thread
that submits and the shard thread that serves hand the GIL over across
CPUs, each handoff a cross-CPU wake-up (``docs/performance.md``).
:func:`hold` pins the calling thread to the CPU it is on, and the
threads it starts afterwards inherit the mask.  Holds count per thread;
the last :meth:`CpuHold.release`, from any thread, restores the
pre-hold mask.  A hold is a no-op without ``os.sched_setaffinity``, on
a one-CPU mask (a user's ``taskset`` wins) and when the kernel refuses.
Spawn sites wrap the spawn in :func:`unheld`, so no child process
inherits a hold.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

__all__ = ["CpuHold", "hold", "unheld"]

# Process-wide, as a thread's mask is: servers started from one thread
# share its entry, and any thread may make the releasing stop().
_lock = threading.Lock()
#: native thread id -> [hold count, pre-hold mask, held CPU]
_holds: Dict[int, List] = {}


def _running_cpu(allowed: Set[int]) -> int:
    """The CPU the calling thread is on (field 39 of its stat line), or
    the lowest CPU ``allowed`` when that CPU is outside the mask."""
    try:
        with open("/proc/thread-self/stat") as stat:
            # Fields after the parenthesised command name start at 3.
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = -1
    return cpu if cpu in allowed else min(allowed)


@dataclass(frozen=True)
class CpuHold:
    """One counted hold of thread ``tid`` on CPU ``cpu``."""

    tid: int
    cpu: int

    def release(self) -> None:
        """Drop this hold; the last one restores the pre-hold mask."""
        with _lock:
            entry = _holds[self.tid]
            entry[0] -= 1
            if entry[0]:
                return
            del _holds[self.tid]
            try:
                os.sched_setaffinity(self.tid, entry[1])
            except OSError:  # the holding thread has exited
                pass


def hold() -> Optional[CpuHold]:
    """Hold the calling thread, and the threads it starts from now on, on
    one CPU (None when the hold is a no-op)."""
    setaffinity = getattr(os, "sched_setaffinity", None)
    if setaffinity is None:
        return None
    tid = threading.get_native_id()
    with _lock:
        entry = _holds.get(tid)
        if entry is None:
            try:
                mask = os.sched_getaffinity(0)
                if len(mask) < 2:
                    return None
                cpu = _running_cpu(mask)
                setaffinity(0, {cpu})
            except OSError:
                return None
            entry = _holds[tid] = [0, mask, cpu]
        entry[0] += 1
        return CpuHold(tid, entry[2])


def _pre_hold_mask() -> Optional[Set[int]]:
    """The mask the calling thread had before a hold it took or inherited
    (None when it is not held)."""
    with _lock:
        if not _holds:
            return None
        own = _holds.get(threading.get_native_id())
        if own is not None:
            return own[1]
        # A thread started by a held thread inherited its one-CPU mask.
        current = os.sched_getaffinity(0)
        for _, mask, cpu in _holds.values():
            if current == {cpu}:
                return mask
    return None


@contextmanager
def unheld() -> Iterator[None]:
    """Run the body (a process spawn) with the pre-hold mask, so a child
    starts with the mask its spawning thread had before any hold."""
    mask = _pre_hold_mask()
    if mask is None:
        yield
        return
    held = os.sched_getaffinity(0)
    os.sched_setaffinity(0, mask)
    try:
        yield
    finally:
        os.sched_setaffinity(0, held)
