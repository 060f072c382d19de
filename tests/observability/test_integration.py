"""End-to-end telemetry: one instrumented invocation emits the documented
metric set and one flight record; the dashboard renders."""

import numpy as np
import pytest

from repro.apps import get_application
from repro.core import prepare_system
from repro.observability import (
    FlightRecorder,
    MetricsRegistry,
    Telemetry,
    prometheus_text,
    read_flight_log,
    render_dashboard,
)
from repro.observability.instrument import PHASES
from repro.observability.reqtrace import segments

#: The catalog of docs/observability.md — one run_invocation must touch
#: every one of these families (error gauges only when measuring).
DOCUMENTED_METRICS = [
    "rumba_invocations_total",
    "rumba_elements_total",
    "rumba_checks_total",
    "rumba_fires_total",
    "rumba_fire_rate",
    "rumba_recovered_total",
    "rumba_recovered_fraction",
    "rumba_threshold",
    "rumba_tuner_moves_total",
    "rumba_cpu_kept_up",
    "rumba_cpu_keepup_total",
    "rumba_cpu_utilization",
    "rumba_measured_error",
    "rumba_unchecked_error",
    "rumba_invocation_latency_seconds",
    "rumba_invocation_cycles",
    "rumba_phase_spans_total",
    "rumba_phase_seconds_total",
]


@pytest.fixture()
def instrumented_system(tmp_path):
    system = prepare_system("fft", scheme="treeErrors", seed=0)
    registry = MetricsRegistry()
    with FlightRecorder(str(tmp_path / "invocations.flight")) as recorder:
        telemetry = Telemetry(app="fft", scheme="treeErrors",
                              registry=registry, recorder=recorder)
        system.attach_telemetry(telemetry)
        yield system, telemetry


@pytest.fixture(scope="module")
def fft_inputs():
    rng = np.random.default_rng(7)
    return get_application("fft").test_inputs(rng)


class TestInvocationEmitsMetricSet:
    def test_documented_metric_families_registered(self, instrumented_system,
                                                   fft_inputs):
        system, telemetry = instrumented_system
        system.run_invocation(fft_inputs[:1000])
        for name in DOCUMENTED_METRICS:
            assert name in telemetry.registry, name

    def test_values_match_the_record(self, instrumented_system, fft_inputs):
        system, telemetry = instrumented_system
        record = system.run_invocation(fft_inputs[:1000])
        labels = dict(app="fft", scheme="treeErrors")
        registry = telemetry.registry

        def value(name, **extra):
            return registry.get(name).labels(**labels, **extra).value

        assert value("rumba_invocations_total") == 1
        assert value("rumba_elements_total") == 1000
        assert value("rumba_checks_total") == 1000
        assert value("rumba_fires_total") == record.detection.n_fired
        assert value("rumba_fire_rate") == pytest.approx(
            record.detection.fire_fraction
        )
        assert value("rumba_recovered_total") == record.recovery.n_recovered
        assert value("rumba_recovered_fraction") == pytest.approx(
            record.fix_fraction
        )
        assert value("rumba_measured_error") == pytest.approx(
            record.measured_error
        )
        assert value("rumba_cpu_utilization") == pytest.approx(
            record.pipeline.cpu_utilization
        )
        latency = registry.get("rumba_invocation_latency_seconds")
        assert latency.labels(**labels).count == 1
        for phase in PHASES:
            assert value("rumba_phase_spans_total", phase=phase) == 1
            assert value("rumba_phase_seconds_total", phase=phase) > 0

    def test_threshold_gauge_tracks_tuner(self, instrumented_system,
                                          fft_inputs):
        system, telemetry = instrumented_system
        system.run_invocation(fft_inputs[:500])
        gauge = telemetry.registry.get("rumba_threshold")
        assert gauge.labels(app="fft", scheme="treeErrors").value == \
            pytest.approx(system.tuner.threshold)

    def test_flight_record_per_invocation(self, instrumented_system,
                                          fft_inputs):
        system, telemetry = instrumented_system
        records = [system.run_invocation(fft_inputs[:500]),
                   system.run_invocation(fft_inputs[500:1000])]
        logged = read_flight_log(telemetry.recorder.path)
        assert [doc["request_id"] for doc in logged] == [1, 2]
        for doc, record in zip(logged, records):
            assert (doc["app"], doc["scheme"]) == ("fft", "treeErrors")
            assert doc["elements"] == 500
            assert doc["fix_fraction"] == pytest.approx(record.fix_fraction)
            # The record's own chain, rebased to its first stamp.
            assert [stage for stage, _ in doc["stages"]] == [
                stage for stage, _ in record.stages
            ]
            assert sum(d for _, d in segments(doc["stages"])) == \
                pytest.approx(doc["latency_s"])
            assert "aborted" not in doc

    def test_phases_are_cut_from_the_stage_chain(self, instrumented_system,
                                                 fft_inputs):
        """``measure`` is the experimenter's instrument and ``invoke`` the
        anchor: neither is a phase, whatever the record's chain holds."""
        system, telemetry = instrumented_system
        record = system.run_invocation(fft_inputs[:500])
        assert "measure" in [stage for stage, _ in record.stages]
        spans = telemetry.registry.get("rumba_phase_spans_total")
        counted = {
            labels["phase"]: child.value for labels, child in spans.series()
        }
        assert counted == {phase: 1 for phase in PHASES}

    def test_aborted_invocation_is_flagged(self, instrumented_system,
                                           fft_inputs):
        system, telemetry = instrumented_system

        def boom(*args, **kwargs):
            raise RuntimeError("accelerator died")

        system.detection.detect_into = boom
        with pytest.raises(RuntimeError):
            system.run_invocation(fft_inputs[:100])
        (doc,) = read_flight_log(telemetry.recorder.path)
        assert doc["aborted"] is True
        assert [stage for stage, _ in doc["stages"]] == ["invoke", "compute",
                                                         "measure"]
        # No record exists, so none of its facts are invented.
        assert "elements" not in doc and "fix_fraction" not in doc
        # Only completed invocations count.
        counter = telemetry.registry.get("rumba_invocations_total")
        assert counter.labels(app="fft", scheme="treeErrors").value == 0

    def test_uninstrumented_system_records_nothing(self, fft_inputs):
        system = prepare_system("fft", scheme="treeErrors", seed=0)
        registry = MetricsRegistry()
        system.run_invocation(fft_inputs[:200])
        assert system.telemetry is None
        assert registry.names() == []

    def test_prometheus_exposition_from_live_system(self, instrumented_system,
                                                    fft_inputs):
        system, telemetry = instrumented_system
        system.run_invocation(fft_inputs[:300])
        text = prometheus_text(telemetry.registry)
        assert 'rumba_fire_rate{app="fft",scheme="treeErrors"}' in text
        assert "rumba_invocation_latency_seconds_bucket" in text
        assert 'le="+Inf"' in text


class TestDashboard:
    def test_renders_after_invocations(self, instrumented_system, fft_inputs):
        system, telemetry = instrumented_system
        for i in range(3):
            system.run_invocation(fft_inputs[i * 300:(i + 1) * 300])
        frame = render_dashboard(telemetry)
        assert "fire rate" in frame
        assert "threshold trajectory" in frame
        assert "cumulative wall time by phase" in frame
        assert "3 invocations" in frame

    def test_renders_with_no_data(self):
        telemetry = Telemetry(app="fft", scheme="treeErrors",
                              registry=MetricsRegistry())
        frame = render_dashboard(telemetry)
        assert "0 invocations" in frame
