import json

import pytest

from spans import SpanRecorder


def test_self_time_subtracts_nested_coverage_once():
    rec = SpanRecorder()
    parent = rec.add("parent", 0.0, 10.0)
    rec.add("a", 1.0, 4.0, parent)
    rec.add("b", 3.0, 6.0, parent)       # overlaps a by 1
    rec.add("c", 9.0, 12.0, parent)      # sticks out by 2: clipped
    # covered: [1,6] = 5 and [9,10] = 1
    assert rec.self_time(parent) == pytest.approx(4.0)


def test_replayed_children_subtract_their_whole_duration():
    rec = SpanRecorder()
    whole = rec.add("core.run_invocation", 0.0, 1.0)
    rec.add("approx.forward", 5.0, 5.2, whole, replayed=True)
    rec.add("core.detect", 6.0, 6.5, whole, replayed=True)
    assert rec.self_time(whole) == pytest.approx(0.3)
    by_name = rec.self_times()
    assert by_name["core.run_invocation"] == [pytest.approx(0.3)]
    assert by_name["approx.forward"] == [pytest.approx(0.2)]


def test_grandchildren_do_not_count_twice():
    rec = SpanRecorder()
    root = rec.add("client.rtt", 0.0, 10.0)
    edge = rec.add("serving.net.edge", 0.0, 10.0, root)
    request = rec.add("serving.server.request", 2.0, 8.0, edge)
    rec.add("serving.batching.queue_wait", 2.0, 5.0, request)
    rec.add("serving.server.service", 5.0, 8.0, request)
    selfs = rec.self_times()
    assert selfs["client.rtt"] == [pytest.approx(0.0)]
    assert selfs["serving.net.edge"] == [pytest.approx(4.0)]
    assert selfs["serving.server.request"] == [pytest.approx(0.0)]
    assert sum(v[0] for v in selfs.values()) == pytest.approx(10.0)


def test_context_manager_and_dump(tmp_path):
    rec = SpanRecorder()
    with rec.span("outer", request_id=3) as outer:
        with rec.span("inner", outer, 3):
            pass
    assert rec.spans[1].parent == outer
    assert rec.spans[0].end >= rec.spans[1].end >= rec.spans[1].start
    path = tmp_path / "trace.json"
    rec.dump(str(path), {"workload": "w"})
    document = json.loads(path.read_text())
    assert document["workload"] == "w"
    assert [s["name"] for s in document["spans"]] == ["outer", "inner"]
    assert document["spans"][1]["request_id"] == 3
