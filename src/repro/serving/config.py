"""Typed configuration for the serving stack.

:class:`~repro.serving.server.RumbaServer` grew one keyword argument per
PR until its constructor carried ~two dozen flat knobs.  This module is
the redesigned surface: a frozen :class:`ServerConfig` whose fields are
grouped by concern —

* :class:`BatchingConfig` — the admission queue and batch formation,
* :class:`BackpressureConfig` — the watermark controller that trades
  quality for stability,
* :class:`RetryConfig` — deadline budgets, fault retries, and worker
  supervision,
* :class:`TracingConfig` — request-trace sampling and the flight
  recorder (see :mod:`repro.observability.reqtrace`),
* :class:`JournalConfig` — the durable request journal that deterministic
  replay consumes (see :mod:`repro.serving.journal`),

plus the engine fields (workers, backend, chaos) that do not fit a
group.  Every section validates itself in ``__post_init__``, so an
invalid configuration fails at construction with
:class:`~repro.errors.ConfigurationError`, before any thread or process
is spawned.

``RumbaServer(config=ServerConfig(...))`` is the only constructor.

Configs are immutable; derive variants with :func:`dataclasses.replace`::

    base = ServerConfig(n_workers=4)
    quick = replace(base, batching=replace(base.batching, flush_interval_s=0.001))
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
from typing import Dict, Optional

from repro.errors import ConfigurationError

__all__ = [
    "BatchingConfig",
    "BackpressureConfig",
    "ClusterConfig",
    "EnsembleConfig",
    "JournalConfig",
    "RetryConfig",
    "TracingConfig",
    "ServerConfig",
    "replace",
]

_BACKENDS = ("thread", "process")


@dataclass(frozen=True)
class BatchingConfig:
    """Admission bound and batch-formation policy (see ``AdmissionQueue``)."""

    #: Max requests merged into one accelerator invocation.
    max_batch_requests: int = 8
    #: Flush deadline: the longest the oldest waiting request is held
    #: back while every worker is busy (an idle worker takes it at once).
    flush_interval_s: float = 0.005
    #: Bound of the admission queue; a full queue sheds (``OverloadedError``).
    admission_capacity: int = 256

    def __post_init__(self) -> None:
        if self.max_batch_requests < 1:
            raise ConfigurationError("max_batch_requests must be >= 1")
        if self.flush_interval_s < 0:
            raise ConfigurationError("flush_interval_s must be >= 0")
        if self.admission_capacity < 1:
            raise ConfigurationError("admission capacity must be >= 1")


@dataclass(frozen=True)
class BackpressureConfig:
    """The watermark degradation controller (see ``BackpressureController``).

    The backlog it watches is the core's: batches taken and not reported
    back plus the batches the waiting requests would form
    (:meth:`~repro.serving.batching.AdmissionQueue.backlog`).
    """

    #: Backlog above this triggers one degradation step.
    high_watermark: int = 8
    #: Backlog at/below this relaxes one step.
    low_watermark: int = 2

    def __post_init__(self) -> None:
        if self.high_watermark <= self.low_watermark:
            raise ConfigurationError(
                "high_watermark must be above low_watermark"
            )
        if self.low_watermark < 0:
            raise ConfigurationError("low_watermark must be >= 0")


@dataclass(frozen=True)
class RetryConfig:
    """Deadline budgets, fault-retry policy, and worker supervision."""

    #: Re-dispatches allowed per request after a worker fault.
    max_retries: int = 2
    #: Default per-request deadline budget (``submit(deadline_s=...)``).
    default_deadline_s: float = 30.0
    #: Base of the exponential retry backoff (``backoff * 2**attempt``).
    retry_backoff_s: float = 0.05
    #: Process backend: restart dead worker processes in place.
    restart_workers: bool = True
    #: Cap on total supervisor restarts (None = unbounded).
    max_worker_restarts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.default_deadline_s <= 0:
            raise ConfigurationError("default_deadline_s must be > 0")
        if self.retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s must be >= 0")
        if (
            self.max_worker_restarts is not None
            and self.max_worker_restarts < 0
        ):
            raise ConfigurationError("max_worker_restarts must be >= 0")


@dataclass(frozen=True)
class TracingConfig:
    """Request-trace sampling and flight-recorder settings.

    Every request gets a trace identity when ``enabled``, but only the
    one-in-``sample_every`` requests picked by the sampler pay for stage
    stamping and are exported (stage histograms and the flight-recorder
    record).  Errors and retried requests are always promoted to
    sampled, so failures always leave a record — their waterfall starts
    at the promotion point (admission and the error stages are always
    present).
    """

    #: Master switch; False makes every stamp site a no-op.
    enabled: bool = True
    #: Export one request in N (counter-based; 1 = export everything).
    sample_every: int = 64
    #: Flight-recorder path (None = no flight log, histograms only).
    flight_log_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ConfigurationError("sample_every must be >= 1")


@dataclass(frozen=True)
class JournalConfig:
    """Durable request-journal settings (see :mod:`repro.serving.journal`).

    When ``path`` is set every terminal request completion — on either
    backend — is appended as an ``FT_JOURNAL`` frame carrying the inputs,
    outputs, decision bits, and completion status that ``python -m repro
    replay`` needs to re-run the trace bit-for-bit.  ``None`` (the
    default) disables journaling entirely; the hot path pays nothing.
    """

    #: Journal file path (None = journaling off).
    path: Optional[str] = None
    #: Size cap per journal generation (rotate-once, so ~2x on disk).
    max_bytes: int = 64 << 20

    def __post_init__(self) -> None:
        if self.max_bytes < 4096:
            raise ConfigurationError(
                "journal max_bytes must be at least 4096"
            )

    @property
    def enabled(self) -> bool:
        return self.path is not None


@dataclass(frozen=True)
class EnsembleConfig:
    """Multi-approximator ensemble routing (see :mod:`repro.approx.ensemble`).

    When ``enabled``, each worker shard serves an
    :class:`~repro.approx.ensemble.ApproximatorEnsemble` instead of the
    single MLP backend: a router picks a member per row, recovery
    outcomes retrain the routing layer online, and the journal records
    the chosen member ids so ``repro replay`` reproduces the run
    bit-for-bit.  All fields are JSON scalars, so they round-trip
    through the journal META frame like every other flat field.
    """

    #: Master switch; off keeps the single-backend hot path untouched.
    enabled: bool = False
    #: Comma-separated, best-first member tokens (see ``EnsembleSpec``).
    members: str = "mlp:large,mlp:small,memo"
    #: Router budget = detection threshold x margin.
    margin: float = 1.0

    def __post_init__(self) -> None:
        if self.enabled:
            # Full validation lives in EnsembleSpec; building one here
            # surfaces bad member lists at config-construction time.
            self.to_spec()
        elif self.margin <= 0:
            raise ConfigurationError("ensemble margin must be > 0")

    def to_spec(self):
        """The :class:`~repro.approx.ensemble.EnsembleSpec` this describes."""
        from repro.approx.ensemble import EnsembleSpec

        return EnsembleSpec(members=self.members, margin=self.margin)


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a :class:`~repro.serving.cluster.ClusterRouter` needs.

    The same config-object idiom as :class:`ServerConfig`: frozen,
    validated at construction, derived with :func:`dataclasses.replace`.
    Health supervision mirrors the PR 4 worker supervisor one level up —
    consecutive probe failures evict a node, exponential backoff governs
    re-admission probes — and the retry fields bound the router-level
    redelivery of requests stranded by a dead node.
    """

    #: The member set, ``host:port`` strings, fixed for the router's
    #: lifetime (an address whose node is not up yet is probed until it is).
    nodes: "tuple" = ()
    #: Seconds between WELCOME/STATS health probes of each node.
    probe_interval_s: float = 1.0
    #: Per-probe timeout before it counts as one failure.
    probe_timeout_s: float = 5.0
    #: Consecutive probe/forward failures that evict a node.
    failure_threshold: int = 3
    #: First re-admission probe delay after an eviction ...
    backoff_initial_s: float = 0.5
    #: ... doubling per failed re-admission probe up to this cap.
    backoff_max_s: float = 30.0
    #: Router-level redeliveries per request after a node death.
    max_retries: int = 2
    #: Deadline budget for requests that arrive without one.
    default_deadline_s: float = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.probe_interval_s <= 0 or self.probe_timeout_s <= 0:
            raise ConfigurationError(
                "probe_interval_s and probe_timeout_s must be > 0"
            )
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.backoff_initial_s <= 0 or self.backoff_max_s <= 0:
            raise ConfigurationError("backoff bounds must be > 0")
        if self.backoff_max_s < self.backoff_initial_s:
            raise ConfigurationError(
                "backoff_max_s must be >= backoff_initial_s"
            )
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.default_deadline_s <= 0:
            raise ConfigurationError("default_deadline_s must be > 0")

    def with_overrides(self, **fields: object) -> "ClusterConfig":
        """A new config with the named fields replaced (CLI helper)."""
        return replace(self, **fields)


@dataclass(frozen=True)
class ServerConfig:
    """Everything a :class:`RumbaServer` needs, grouped by concern.

    The engine fields live at the top level; policy lives in the
    ``batching`` / ``backpressure`` / ``retry`` sections.  ``chaos``
    takes a :class:`~repro.serving.faults.ChaosConfig` (or a prebuilt
    :class:`~repro.serving.faults.ChaosMonkey`) for fault injection.
    """

    app: str = "fft"
    scheme: str = "treeErrors"
    n_workers: int = 2
    backend: str = "thread"
    ring_capacity_bytes: int = 1 << 22
    measure_quality: bool = False
    seed: int = 0
    batching: BatchingConfig = field(default_factory=BatchingConfig)
    backpressure: BackpressureConfig = field(
        default_factory=BackpressureConfig
    )
    retry: RetryConfig = field(default_factory=RetryConfig)
    tracing: TracingConfig = field(default_factory=TracingConfig)
    journal: JournalConfig = field(default_factory=JournalConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    chaos: Optional[object] = None
    #: Retired: recovery runs on the shard thread, so nothing reads this.
    #: Still accepted (and validated) because ``benchmarks/ladder/harness.py``
    #: passes it and benchmark issues alone may edit that file; an InitVar
    #: is not a field, so it reaches neither ``flat()`` nor journal META.
    n_recovery_workers: InitVar[int] = 1

    #: Journal-META key -> (section attribute or None, field name); see
    #: :meth:`flat`.  ``repro replay`` reads these keys from disk.
    _FLAT_FIELDS = {
        "n_workers": (None, "n_workers"),
        "backend": (None, "backend"),
        "ring_capacity_bytes": (None, "ring_capacity_bytes"),
        "measure_quality": (None, "measure_quality"),
        "seed": (None, "seed"),
        "chaos": (None, "chaos"),
        "max_batch_requests": ("batching", "max_batch_requests"),
        "flush_interval_s": ("batching", "flush_interval_s"),
        "admission_capacity": ("batching", "admission_capacity"),
        "high_watermark": ("backpressure", "high_watermark"),
        "low_watermark": ("backpressure", "low_watermark"),
        "max_retries": ("retry", "max_retries"),
        "default_deadline_s": ("retry", "default_deadline_s"),
        "retry_backoff_s": ("retry", "retry_backoff_s"),
        "restart_workers": ("retry", "restart_workers"),
        "max_worker_restarts": ("retry", "max_worker_restarts"),
        "trace_enabled": ("tracing", "enabled"),
        "trace_sample_every": ("tracing", "sample_every"),
        "flight_log_path": ("tracing", "flight_log_path"),
        "journal_path": ("journal", "path"),
        "journal_max_bytes": ("journal", "max_bytes"),
        "ensemble_enabled": ("ensemble", "enabled"),
        "ensemble_members": ("ensemble", "members"),
        "ensemble_margin": ("ensemble", "margin"),
    }

    def __post_init__(self, n_recovery_workers: int) -> None:
        if self.n_workers < 1 or n_recovery_workers < 1:
            raise ConfigurationError("need at least one worker of each kind")
        if self.backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {_BACKENDS}"
            )
        if self.ring_capacity_bytes < 128:
            raise ConfigurationError("ring_capacity_bytes is too small")

    def flat(self) -> Dict[str, object]:
        """The config as the one-level dict the journal META records."""
        out: Dict[str, object] = {"app": self.app, "scheme": self.scheme}
        for name, (section, attr) in self._FLAT_FIELDS.items():
            source = self if section is None else getattr(self, section)
            out[name] = getattr(source, attr)
        return out

    def with_overrides(self, **fields: object) -> "ServerConfig":
        """A new config with the named top-level fields replaced."""
        return replace(self, **fields)


# ``replace`` is re-exported so callers can derive config variants with
# ``from repro.serving.config import ServerConfig, replace``.
