"""Fault injection for the serving stack (chaos harness).

Rumba's premise is that an unreliable fast path is safe as long as a
supervisor detects bad results and re-executes them; this module turns
that philosophy on the serving layer itself.  A :class:`ChaosMonkey`
drives configurable faults into a running :class:`RumbaServer` so tests,
``python -m repro serve --chaos``, and ``benchmarks/bench_chaos.py`` can
prove that every request still completes exactly once (or fails fast
with :class:`~repro.errors.ServingError`) under sustained churn:

* **worker kills** — SIGKILL a random live worker process at a
  configurable rate (process backend; exercises supervisor restart and
  batch re-dispatch),
* **injected batch faults** — raise :class:`InjectedFault` from a worker
  with a configurable probability (thread backend's analogue of a crash;
  exercises the retry path without OS processes).

Configuration comes from :class:`ChaosConfig`, parseable from the CLI's
``--chaos kill=2,fail=0.05,seed=1`` spec string.
"""

from __future__ import annotations

import os
import random
import signal
import threading
from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.errors import ConfigurationError, WorkerCrashError

__all__ = [
    "ChaosConfig",
    "ChaosMonkey",
    "InjectedFault",
]


class InjectedFault(WorkerCrashError):
    """A synthetic worker fault raised by the chaos harness.

    Derives from :class:`WorkerCrashError`, so the server treats it like
    a real crash: the batch is retried within its deadline budget.
    """


@dataclass
class ChaosConfig:
    """What the monkey is allowed to break, and how often.

    Parameters
    ----------
    kill_rate:
        Expected worker-process kills per second (Poisson arrivals);
        0 disables the killer thread.  Process backend only.
    fail_prob:
        Per-batch probability of raising :class:`InjectedFault` at
        dispatch time.  Works in both backends; the thread backend's
        stand-in for a crash.
    seed:
        Seeds the monkey's private RNG so chaos runs are reproducible.
    """

    kill_rate: float = 0.0
    fail_prob: float = 0.0
    seed: int = 0

    #: short CLI spec keys -> field names
    _SPEC_KEYS = {"kill": "kill_rate", "fail": "fail_prob", "seed": "seed"}

    def __post_init__(self) -> None:
        if not 0.0 <= self.fail_prob <= 1.0:
            raise ConfigurationError("chaos probabilities must be in [0, 1]")
        if self.kill_rate < 0:
            raise ConfigurationError("chaos rates must be >= 0")

    @property
    def enabled(self) -> bool:
        return any(
            getattr(self, f.name) for f in fields(self) if f.name != "seed"
        )

    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig":
        """Build a config from a ``key=value,...`` CLI spec string.

        ``--chaos kill=2`` kills one worker every ~0.5 s on average;
        an empty spec (``--chaos ""``) enables nothing.
        """
        kwargs: Dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigurationError(
                    f"bad chaos spec entry {part!r}; expected key=value"
                )
            key, _, value = part.partition("=")
            key = key.strip()
            field = cls._SPEC_KEYS.get(key, key)
            if field not in {f.name for f in fields(cls)}:
                raise ConfigurationError(
                    f"unknown chaos key {key!r}; choose from "
                    f"{sorted(cls._SPEC_KEYS)}"
                )
            try:
                kwargs[field] = int(value) if field == "seed" else float(value)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad chaos value for {key!r}: {value!r}"
                ) from exc
        return cls(**kwargs)


class ChaosMonkey:
    """Applies a :class:`ChaosConfig` to a live serving stack.

    The server owns the monkey's lifecycle: ``start()`` spawns the
    killer thread (when a pool is attached and ``kill_rate > 0``) and
    ``stop()`` halts it before the server drains, so shutdown is always
    chaos-free.  All fault counters are plain ints guarded by the GIL —
    they are statistics, not synchronization.
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self._pool = None
        self._stop_event = threading.Event()
        self._killer: Optional[threading.Thread] = None
        self.kills = 0
        self.injected_faults = 0

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #
    def attach_pool(self, pool) -> None:
        """Point the monkey's killer at a ProcessWorkerPool."""
        self._pool = pool

    def start(self) -> "ChaosMonkey":
        self._stop_event.clear()
        if self.config.kill_rate > 0 and self._pool is not None:
            self._killer = threading.Thread(
                target=self._kill_loop, name="rumba-chaos-killer", daemon=True
            )
            self._killer.start()
        return self

    def stop(self) -> None:
        self._stop_event.set()
        if self._killer is not None:
            self._killer.join(timeout=10.0)
            self._killer = None

    # ------------------------------------------------------------------ #
    # Fault channels                                                     #
    # ------------------------------------------------------------------ #
    def _kill_loop(self) -> None:
        while not self._stop_event.is_set():
            delay = self._rng.expovariate(self.config.kill_rate)
            if self._stop_event.wait(timeout=max(delay, 0.005)):
                return
            self.kill_one_worker()

    def kill_one_worker(self) -> bool:
        """SIGKILL one random live worker; False when none is killable."""
        pool = self._pool
        if pool is None:
            return False
        live = [
            w for w in pool.workers
            if w.alive() and w.process.pid is not None
        ]
        if not live:
            return False
        victim = self._rng.choice(live)
        try:
            if hasattr(signal, "SIGKILL"):
                os.kill(victim.process.pid, signal.SIGKILL)
            else:  # pragma: no cover - non-POSIX fallback
                victim.process.terminate()
        except (ProcessLookupError, OSError):  # pragma: no cover - race
            return False
        self.kills += 1
        return True

    def maybe_fail(self, where: str = "") -> None:
        """Raise :class:`InjectedFault` with ``fail_prob`` probability."""
        if self.config.fail_prob and self._rng.random() < self.config.fail_prob:
            self.injected_faults += 1
            raise InjectedFault(
                f"chaos-injected worker fault ({where or 'dispatch'})"
            )

    def summary(self) -> Dict[str, int]:
        return {
            "kills": self.kills,
            "injected_faults": self.injected_faults,
        }
