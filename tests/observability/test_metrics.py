"""Registry semantics: labels, cardinality, histogram buckets, threads."""

import threading

import pytest

from repro.errors import ConfigurationError
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_unlabelled_increment(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("c_total", "help")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        counter = Counter("c_total", "help", ("app",))
        counter.labels(app="fft").inc(3)
        counter.labels(app="sobel").inc(4)
        assert counter.labels(app="fft").value == 3
        assert counter.labels(app="sobel").value == 4

    def test_labelled_requires_labels_call(self):
        counter = Counter("c_total", "help", ("app",))
        with pytest.raises(ConfigurationError):
            counter.inc()

    def test_wrong_label_names_rejected(self):
        counter = Counter("c_total", "help", ("app",))
        with pytest.raises(ConfigurationError):
            counter.labels(scheme="x")
        with pytest.raises(ConfigurationError):
            counter.labels(app="x", scheme="y")


class TestLabelCardinality:
    def test_series_capped(self):
        counter = Counter("c_total", "help", ("id",), max_series=5)
        for i in range(5):
            counter.labels(id=str(i)).inc()
        with pytest.raises(ConfigurationError):
            counter.labels(id="overflow")

    def test_existing_series_still_usable_at_cap(self):
        counter = Counter("c_total", "help", ("id",), max_series=2)
        counter.labels(id="a").inc()
        counter.labels(id="b").inc()
        counter.labels(id="a").inc()  # no new series: fine
        assert counter.labels(id="a").value == 2

    def test_invalid_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter("0bad", "help")
        with pytest.raises(ConfigurationError):
            Counter("c_total", "help", ("le",))  # reserved
        with pytest.raises(ConfigurationError):
            Counter("c_total", "help", ("a", "a"))  # duplicate


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g", "help")
        gauge.set(10)
        gauge.inc(2)
        gauge.inc(-0.5)  # a decrement is a negative increment
        assert gauge.value == 11.5


class TestHistogram:
    def test_bucket_counts_are_cumulative(self):
        hist = Histogram("h", "help", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 1.7, 4.0, 100.0):
            hist.observe(value)
        buckets = hist._self_child()._snapshot()["buckets"]
        assert buckets == [[1.0, 1], [2.0, 3], [5.0, 4], [float("inf"), 5]]
        assert hist.count == 5
        assert hist.sum == pytest.approx(107.7)

    def test_boundary_lands_in_bucket(self):
        hist = Histogram("h", "help", buckets=(1.0,))
        hist.observe(1.0)  # le="1.0" is inclusive
        assert hist._self_child()._snapshot()["buckets"][0] == [1.0, 1]

    def test_observe_many_is_observe_under_one_lock(self):
        # Same bins (boundaries inclusive, past the last = +Inf), same
        # sum and count as one observe() per value.
        values = [0.0, 0.5, 1.0, 1.0001, 2.0, 4.9, 5.0, 5.1, 100.0]
        one_by_one = Histogram("a", "help", buckets=(1.0, 2.0, 5.0))
        batched = Histogram("b", "help", buckets=(1.0, 2.0, 5.0))
        for value in values:
            one_by_one.observe(value)
        batched._self_child().observe_many(values)
        batched._self_child().observe_many([])
        assert (batched._self_child()._snapshot()
                == one_by_one._self_child()._snapshot())

    def test_bad_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", "help", buckets=())
        with pytest.raises(ConfigurationError):
            Histogram("h", "help", buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", "help", buckets=(1.0, float("inf")))


class TestRegistry:
    def test_create_or_get_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", "help", ("app",))
        b = registry.counter("c_total", "help", ("app",))
        assert a is b

    def test_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", "help")
        with pytest.raises(ConfigurationError):
            registry.gauge("m", "help")

    def test_label_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m_total", "help", ("app",))
        with pytest.raises(ConfigurationError):
            registry.counter("m_total", "help", ("scheme",))

    def test_collect_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.gauge("zz", "help")
        registry.gauge("aa", "help")
        assert [f["name"] for f in registry.collect()] == ["aa", "zz"]

    def test_thread_safety_of_counter(self):
        counter = Counter("c_total", "help", ("t",))

        def work():
            child = counter.labels(t="x")
            for _ in range(1000):
                child.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Concurrent labels() calls converge on one child and no
        # increment is lost.
        assert len(counter._children) == 1
        assert counter.labels(t="x").value == 8000


class TestConcurrentReads:
    def test_histogram_snapshot_consistent_under_writers(self):
        """count/sum/buckets read while 4 threads observe must form a
        consistent triple (sum of bucket counts == count)."""
        hist = Histogram("h_seconds", "help", buckets=(0.1, 1.0, 10.0))
        child = hist.labels()
        stop = threading.Event()

        def write():
            while not stop.is_set():
                child.observe(0.5)

        writers = [threading.Thread(target=write) for _ in range(4)]
        for t in writers:
            t.start()
        try:
            for _ in range(200):
                snap = child._snapshot()
                # Cumulative +Inf bucket must equal the total count, and
                # every observation was 0.5, so sum pins to count too.
                assert snap["buckets"][-1][1] == snap["count"]
                assert snap["sum"] == pytest.approx(0.5 * snap["count"])
        finally:
            stop.set()
            for t in writers:
                t.join()


def _invocation(n_elements, n_fired):
    """``(stages, facts)`` of one finished invocation, as the runtime
    hands them to ``Telemetry.observe``."""
    stages = [("invoke", 1.0), ("compute", 2.0), ("detect", 3.0),
              ("recover", 4.0), ("tune", 5.0)]
    facts = {
        "n_elements": n_elements, "n_fired": n_fired, "n_recovered": n_fired,
        "fire_fraction": n_fired / n_elements,
        "fix_fraction": n_fired / n_elements,
        "threshold": 0.1, "tuner_move": 0,
        "cpu_kept_up": True, "cpu_utilization": 0.5,
        "makespan_cycles": 1000.0,
    }
    return stages, facts


class TestTelemetryExtraLabels:
    def test_worker_label_produces_separate_series(self):
        from repro.observability import Telemetry

        registry = MetricsRegistry()
        for worker in ("w0", "w1"):
            tel = Telemetry(app="fft", scheme="treeErrors", registry=registry,
                            extra_labels={"worker": worker})
            tel.observe(*_invocation(n_elements=100, n_fired=10))
        family = registry.get("rumba_checks_total")
        series = {labels["worker"]: child.value
                  for labels, child in family.series()}
        assert series == {"w0": 100, "w1": 100}

    def test_reserved_label_names_rejected(self):
        from repro.observability import Telemetry

        for name in ("app", "scheme", "phase"):
            with pytest.raises(ConfigurationError):
                Telemetry(app="fft", scheme="treeErrors",
                          registry=MetricsRegistry(),
                          extra_labels={name: "x"})

    def test_unlabelled_telemetry_unchanged(self):
        """No extra labels → exactly the PR 1 label set (the golden
        exposition test depends on this)."""
        from repro.observability import Telemetry

        registry = MetricsRegistry()
        tel = Telemetry(app="fft", scheme="treeErrors", registry=registry)
        tel.observe(*_invocation(n_elements=10, n_fired=1))
        family = registry.get("rumba_checks_total")
        (labels, _), = family.series()
        assert set(labels) == {"app", "scheme"}
