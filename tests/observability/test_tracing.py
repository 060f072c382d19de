"""Tracer span ordering, attributes and the JSONL exporter.

The tracer is fed finished timelines (``Telemetry.observe`` cuts them
from invocation records); ``tests/observability/test_integration.py``
covers that path end to end."""

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.observability.tracing import JsonlSpanExporter, Span, Tracer


class TestSpan:
    def test_duration_never_negative(self):
        span = Span(name="x", invocation=0, start=5.0, end=4.0)
        assert span.duration == 0.0

    def test_to_dict_round_trips_through_json(self):
        span = Span(name="x", invocation=3, start=1.0, end=2.5,
                    wall_time=100.0, attributes={"n": 7})
        loaded = json.loads(json.dumps(span.to_dict()))
        assert loaded["name"] == "x"
        assert loaded["invocation"] == 3
        assert loaded["duration_s"] == pytest.approx(1.5)
        assert loaded["attributes"] == {"n": 7}


def _chain(*names, t0=100.0, step=0.25):
    """One invocation's timeline, as ``Tracer.commit`` takes it: spans
    laid end to end on the monotonic axis, in completion order."""
    return [
        (name, t0 + i * step, t0 + (i + 1) * step, {})
        for i, name in enumerate(names)
    ]


class TestTracer:
    def test_spans_commit_in_completion_order(self):
        tracer = Tracer()
        # An inner span finishes before the outer one that contains it.
        tracer.commit([
            ("inner", 1.0, 2.0, {}),
            ("outer", 0.5, 3.0, {}),
        ])
        names = [s.name for s in tracer.spans]
        assert names == ["inner", "outer"]  # inner finishes first
        inner, outer = tracer.spans
        assert inner.start >= outer.start
        assert outer.end >= inner.end

    def test_phase_order_preserved_within_invocation(self):
        tracer = Tracer()
        tracer.commit(_chain("accelerate", "detect", "recover", "tune"))
        spans = tracer.spans_for(0)
        assert [s.name for s in spans] == [
            "accelerate", "detect", "recover", "tune"
        ]
        starts = [s.start for s in spans]
        assert starts == sorted(starts)

    def test_invocation_ids_are_monotonic(self):
        tracer = Tracer()
        (first,) = tracer.commit(_chain("x"))
        (second,) = tracer.commit(_chain("x"))
        assert (first.invocation, second.invocation) == (0, 1)
        assert [s.invocation for s in tracer.spans] == [0, 1]
        assert tracer.spans_for(1) == [second]

    def test_buffer_is_bounded(self):
        tracer = Tracer(max_spans=3)
        tracer.commit(_chain(*(f"s{i}" for i in range(5))))
        assert [s.name for s in tracer.spans] == ["s2", "s3", "s4"]

    def test_span_counts(self):
        tracer = Tracer()
        tracer.commit(_chain("detect", "detect", "detect", "tune"))
        assert tracer.span_counts() == {"detect": 3, "tune": 1}

    def test_bad_max_spans_rejected(self):
        with pytest.raises(ConfigurationError):
            Tracer(max_spans=0)

    def test_attributes_set_inside_block_survive(self):
        tracer = Tracer()
        attributes = {"n_elements": 10}
        attributes["n_fired"] = 4  # known only after detection
        (span,) = tracer.commit([("detect", 1.0, 2.0, attributes)])
        assert tracer.spans[0].attributes == {"n_elements": 10, "n_fired": 4}
        # The span owns a copy: the caller's dict can be reused.
        attributes.clear()
        assert span.attributes == {"n_elements": 10, "n_fired": 4}


class TestJsonlExporter:
    def test_exports_one_json_object_per_line(self):
        sink = io.StringIO()
        exporter = JsonlSpanExporter(sink)
        tracer = Tracer(exporter=exporter)
        tracer.commit(_chain("detect", "recover"))
        lines = sink.getvalue().strip().split("\n")
        assert len(lines) == 2
        assert [json.loads(line)["name"] for line in lines] == [
            "detect", "recover"
        ]
        assert exporter.exported == 2

    def test_file_destination(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        with JsonlSpanExporter(path) as exporter:
            tracer = Tracer(exporter=exporter)
            tracer.commit([("x", 1.0, 2.0, {"answer": 42})])
        with open(path) as handle:
            record = json.loads(handle.readline())
        assert record["attributes"] == {"answer": 42}
