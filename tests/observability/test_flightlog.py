"""Flight-recorder tests: round trips, rotation, and crash-torn tails."""

from __future__ import annotations

import os
import struct

import pytest

from repro.errors import ConfigurationError
from repro.observability.flightlog import (
    FlightRecorder,
    aggregate_stages,
    format_record_line,
    format_waterfall,
    iter_flight_records,
    percentile,
    read_flight_log,
)
from repro.observability.reqtrace import segments


def _record(request_id=1, trace_id=0xAB, latency=0.010, stages=None,
            **extra):
    document = {
        "v": 1,
        "request_id": request_id,
        "trace_id": trace_id,
        "app": "fft",
        "scheme": "treeErrors",
        "worker": "w0",
        "elements": 8,
        "attempts": 0,
        "latency_s": latency,
        "queue_wait_s": 0.001,
        "fix_fraction": 0.25,
        "degraded": False,
        "error": None,
        "stages": stages if stages is not None else [
            ["admit", 0.0], ["dequeue", 0.002], ["compute", 0.007],
            ["complete", latency],
        ],
    }
    document.update(extra)
    return document


class TestRecorder:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "flight.bin")
        documents = [_record(request_id=i, trace_id=100 + i)
                     for i in range(5)]
        with FlightRecorder(path) as recorder:
            for document in documents:
                recorder.record(document)
            assert recorder.written == 5
        assert read_flight_log(path) == documents

    def test_append_across_reopens(self, tmp_path):
        path = str(tmp_path / "flight.bin")
        with FlightRecorder(path) as recorder:
            recorder.record(_record(request_id=1))
        with FlightRecorder(path) as recorder:
            recorder.record(_record(request_id=2))
        ids = [r["request_id"] for r in read_flight_log(path)]
        assert ids == [1, 2]

    def test_rotation_caps_disk_use(self, tmp_path):
        path = str(tmp_path / "flight.bin")
        with FlightRecorder(path, max_bytes=4096) as recorder:
            for i in range(100):
                recorder.record(_record(request_id=i))
            assert recorder.rotations >= 1
        assert os.path.exists(path + ".1")
        assert os.path.getsize(path) <= 4096 + 1024
        records = read_flight_log(path)
        ids = [r["request_id"] for r in records]
        # Rotated generation first, so surviving ids are ordered and end
        # at the last write; the oldest generation was clobbered.
        assert ids == sorted(ids)
        assert ids[-1] == 99
        assert read_flight_log(path, include_rotated=False) == list(
            iter_flight_records(path, include_rotated=False)
        )

    def test_torn_tail_is_dropped_not_garbage(self, tmp_path):
        path = str(tmp_path / "flight.bin")
        with FlightRecorder(path) as recorder:
            for i in range(3):
                recorder.record(_record(request_id=i))
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 7)  # crash mid-write of the last record
        ids = [r["request_id"] for r in read_flight_log(path)]
        assert ids == [0, 1]

    def test_corrupt_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "flight.bin")
        with FlightRecorder(path) as recorder:
            for i in range(3):
                recorder.record(_record(request_id=i))
        with open(path, "r+b") as fh:
            fh.seek(-3, os.SEEK_END)
            fh.write(b"\xff")  # flip a CRC byte of the final record
        ids = [r["request_id"] for r in read_flight_log(path)]
        assert ids == [0, 1]

    def test_garbage_length_prefix_stops_reading(self, tmp_path):
        path = str(tmp_path / "flight.bin")
        with FlightRecorder(path) as recorder:
            recorder.record(_record(request_id=5))
        with open(path, "ab") as fh:
            fh.write(struct.pack("<I", 1 << 30))
        assert [r["request_id"] for r in read_flight_log(path)] == [5]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_flight_log(str(tmp_path / "nope.bin")) == []

    def test_record_after_close_is_dropped(self, tmp_path):
        path = str(tmp_path / "flight.bin")
        recorder = FlightRecorder(path)
        recorder.close()
        recorder.record(_record())
        assert recorder.written == 0
        assert read_flight_log(path) == []

    def test_tiny_cap_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FlightRecorder(str(tmp_path / "flight.bin"), max_bytes=100)


class TestAnalysis:
    def test_stage_segments_are_deltas(self):
        record = _record(stages=[
            ["admit", 0.0], ["dequeue", 0.004], ["complete", 0.010],
        ])
        assert segments(record["stages"]) == [
            ("admit", 0.0),
            ("dequeue", pytest.approx(0.004)),
            ("complete", pytest.approx(0.006)),
        ]

    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile([7.0], 95) == 7.0
        assert percentile([], 50) != percentile([], 50)  # NaN

    def test_aggregate_stages_orders_by_pipeline(self):
        records = [_record(latency=0.010 * (i + 1)) for i in range(10)]
        aggregate = aggregate_stages(records)
        assert list(aggregate) == ["admit", "dequeue", "compute", "complete"]
        for stats in aggregate.values():
            assert stats["count"] == 10
            assert stats["p50"] <= stats["p95"] <= stats["p99"]

    def test_format_record_line_mentions_identity(self):
        line = format_record_line(_record(request_id=42, trace_id=0xBEEF))
        assert "42" in line and f"{0xBEEF:#018x}" in line and "ok" in line
        errored = format_record_line(_record(error=3))
        assert "err=3" in errored

    def test_format_waterfall_covers_latency(self):
        text = format_waterfall(_record())
        assert "admit" in text and "complete" in text
        assert "covers 100.0% of end-to-end latency" in text
        assert "trace" in text

    def test_format_waterfall_empty_stages(self):
        text = format_waterfall(_record(stages=[]))
        assert "no stage events" in text

    def test_a_retired_stage_in_an_old_log_still_renders(self, tmp_path,
                                                         capsys):
        """Flight logs written while the thread backend still parked
        batches for a recovery pool carry ``recovery_wait``, which is no
        longer in ``STAGES``: ``repro trace`` shows it all the same — in
        place in the waterfall, after the known stages in the aggregate."""
        from repro.__main__ import main

        path = str(tmp_path / "old.flight")
        with FlightRecorder(path) as recorder:
            recorder.record(_record(request_id=7, stages=[
                ["admit", 0.0], ["detect", 0.003], ["recovery_wait", 0.004],
                ["recover", 0.008], ["complete", 0.010],
            ]))
        assert main(["trace", "7", "--log", path]) == 0
        waterfall = capsys.readouterr().out
        assert "recovery_wait" in waterfall
        assert "covers 100.0% of end-to-end latency" in waterfall
        assert main(["trace", "--log", path]) == 0
        assert "recovery_wait" in capsys.readouterr().out
        assert list(aggregate_stages(read_flight_log(path))) == [
            "admit", "detect", "recover", "complete", "recovery_wait",
        ]
