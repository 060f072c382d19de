"""Labelled metric primitives and the metrics registry.

Prometheus-style instruments with zero dependencies:

* :class:`Counter` — monotonically increasing totals,
* :class:`Gauge` — last-written values,
* :class:`Histogram` — fixed-bucket distributions (cumulative buckets,
  sum and count, like the Prometheus exposition expects).

Every instrument is *labelled*: ``metric.labels(app="sobel")`` returns the
child series for that label set.  Children are created on first use and
capped (``max_series``) so a buggy label like a request id cannot blow up
the registry.  All mutation goes through one lock per instrument family,
which keeps the hot path (a dict lookup + a float add) cheap while staying
safe for the threaded deployments the stream layer targets.

A process-global *default registry* mirrors the Prometheus client
convention: library code can instrument against
:func:`get_default_registry` while tests and benches install their own via
:func:`set_default_registry`.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_default_registry",
    "set_default_registry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_FINE_LATENCY_BUCKETS",
    "DEFAULT_CYCLE_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Wall-time buckets (seconds) sized for millisecond-scale invocations.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Model-cycle buckets (one per decade) for makespan-style quantities.
DEFAULT_CYCLE_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** e for e in range(3, 11)
)

#: Log-spaced 50 µs – 1 s grid for sub-millisecond quantities: network
#: hops, shm transfers, and the per-stage trace segments, which would
#: all pile into the first bucket of the coarse default.
DEFAULT_FINE_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Per-metric bucket defaults used when ``histogram`` is called without
#: an explicit ``buckets``: exact name match wins, then the longest
#: matching name prefix, then ``DEFAULT_LATENCY_BUCKETS``.
_BUCKET_OVERRIDES: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("rumba_stage_seconds", DEFAULT_FINE_LATENCY_BUCKETS),
    ("rumba_net_", DEFAULT_FINE_LATENCY_BUCKETS),
    ("rumba_cluster_", DEFAULT_FINE_LATENCY_BUCKETS),
)


def _resolve_buckets(name: str) -> Tuple[float, ...]:
    """The default bucket grid for ``name`` (see ``_BUCKET_OVERRIDES``)."""
    best: Optional[Tuple[float, ...]] = None
    best_len = -1
    for prefix, buckets in _BUCKET_OVERRIDES:
        if name == prefix:
            return buckets
        if name.startswith(prefix) and len(prefix) > best_len:
            best, best_len = buckets, len(prefix)
    return best if best is not None else DEFAULT_LATENCY_BUCKETS


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(f"invalid metric name {name!r}")
    return name


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate label names in {names}")
    for label in names:
        if not _LABEL_RE.match(label) or label == "le":
            raise ConfigurationError(f"invalid label name {label!r}")
    return names


class _Metric:
    """Shared family machinery: label children, lock, snapshots."""

    metric_type = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        max_series: int = 1000,
    ):
        if max_series < 1:
            raise ConfigurationError("max_series must be >= 1")
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = _validate_labelnames(labelnames)
        self.max_series = max_series
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            # Unlabelled instruments act as their own single child.
            self._children[()] = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def _new_lock(self) -> threading.Lock:
        # Children share the family lock: label() hot paths only touch it
        # once per update, and one lock keeps snapshots consistent.
        return self._lock

    def labels(self, **labels: str):
        """The child series for one label set (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ConfigurationError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= self.max_series:
                    raise ConfigurationError(
                        f"{self.name}: label cardinality exceeded "
                        f"({self.max_series} series); check label values"
                    )
                child = self._make_child()
                self._children[key] = child
            return child

    def _self_child(self):
        if self.labelnames:
            raise ConfigurationError(
                f"{self.name} is labelled; call .labels(...) first"
            )
        return self._children[()]

    def series(self) -> List[Tuple[Dict[str, str], object]]:
        """All (label dict, child) pairs, sorted for stable exposition."""
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in items
        ]

    def snapshot(self) -> dict:
        """A plain-data view of the whole family (used by the exporters)."""
        return {
            "name": self.name,
            "type": self.metric_type,
            "help": self.help,
            "series": [
                dict(labels=labels, **child._snapshot())  # type: ignore[attr-defined]
                for labels, child in self.series()
            ],
        }


class _CounterChild:
    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _snapshot(self) -> dict:
        with self._lock:
            return {"value": self._value}


class Counter(_Metric):
    """A monotonically increasing total (name it ``*_total``)."""

    metric_type = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._new_lock())

    def inc(self, amount: float = 1.0) -> None:
        self._self_child().inc(amount)

    @property
    def value(self) -> float:
        return self._self_child().value


class _GaugeChild:
    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _snapshot(self) -> dict:
        with self._lock:
            return {"value": self._value}


class Gauge(_Metric):
    """A value that can go up and down (thresholds, rates, occupancy)."""

    metric_type = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._new_lock())

    def set(self, value: float) -> None:
        self._self_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._self_child().inc(amount)

    @property
    def value(self) -> float:
        return self._self_child().value


class _HistogramChild:
    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, bounds: Tuple[float, ...], lock: threading.Lock) -> None:
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last bin is +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            for i, bound in enumerate(self._bounds):
                if value <= bound:
                    self._counts[i] += 1
                    break
            else:
                self._counts[-1] += 1
            self._sum += value
            self._count += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` every value under one lock acquisition."""
        bounds, counts = self._bounds, self._counts
        with self._lock:
            for value in values:
                # First bound >= value; past the last one is the +Inf bin.
                counts[bisect_left(bounds, value)] += 1
                self._sum += value
            self._count += len(values)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _snapshot(self) -> dict:
        # Read counts, sum and count under one lock acquisition so the
        # exported triple is internally consistent even while other
        # threads observe() concurrently.
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
            total_count = self._count
        out: List[List[float]] = []
        running = 0
        for bound, count in zip(self._bounds, counts):
            running += count
            out.append([bound, running])
        out.append([float("inf"), running + counts[-1]])
        return {"buckets": out, "sum": total_sum, "count": total_count}


class Histogram(_Metric):
    """A fixed-bucket distribution; buckets are set at construction."""

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        max_series: int = 1000,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError("buckets must be strictly increasing")
        if any(b != b or b == float("inf") for b in bounds):
            raise ConfigurationError(
                "buckets must be finite (+Inf is implicit)"
            )
        self.buckets = bounds
        super().__init__(name, help, labelnames, max_series=max_series)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets, self._new_lock())

    def observe(self, value: float) -> None:
        self._self_child().observe(value)

    @property
    def count(self) -> int:
        return self._self_child().count

    @property
    def sum(self) -> float:
        return self._self_child().sum


class MetricsRegistry:
    """Holds metric families; the unit of export.

    The ``counter`` / ``gauge`` / ``histogram`` helpers are create-or-get:
    asking twice for the same name returns the same family, and asking with
    a conflicting type or label set raises — the same collision rules the
    Prometheus client enforces.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                raise ConfigurationError(
                    f"metric {metric.name!r} already registered"
                )
            self._metrics[metric.name] = metric
        return metric

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{existing.metric_type}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ConfigurationError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        """Create-or-get a histogram family.

        When ``buckets`` is omitted the grid comes from the per-metric
        override table (``rumba_net_*`` and ``rumba_stage_seconds`` get
        the fine 50 µs grid), falling back to
        ``DEFAULT_LATENCY_BUCKETS``.
        """
        if buckets is None:
            buckets = _resolve_buckets(name)
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def collect(self) -> List[dict]:
        """Snapshots of every family, sorted by name (stable exposition)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return [metric.snapshot() for metric in metrics]


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_default_registry() -> MetricsRegistry:
    """The process-global registry (what ambient instrumentation uses)."""
    with _default_lock:
        return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the old one."""
    global _default_registry
    with _default_lock:
        old = _default_registry
        _default_registry = registry
    return old
