"""Append-only flight recorder for completed serving requests.

One structured record per sampled request — trace id, every stage
timestamp, scheme, quality outcome, retries, worker id, error code —
written to a size-capped, crash-safe log file: one ``FT_FLIGHT`` frame
with a JSON body per record in a rotate-once
:class:`~repro.framedlog.FramedLog`, which supplies the torn-tail
detection and the ``<path>.1`` rotation.

The read side (:func:`iter_flight_records`, :func:`aggregate_stages`,
:func:`format_waterfall`) backs ``python -m repro trace``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Sequence

from repro.framedlog import FramedLog, generations, iter_frames
from repro.observability.reqtrace import STAGES, segments

__all__ = [
    "FLIGHT_LOG_VERSION",
    "FlightRecorder",
    "iter_flight_records",
    "read_flight_log",
    "aggregate_stages",
    "percentile",
    "format_waterfall",
    "format_record_line",
]

#: Bump when the record schema changes shape incompatibly.
FLIGHT_LOG_VERSION = 1

_STAGE_ORDER = {name: i for i, name in enumerate(STAGES)}


class FlightRecorder(FramedLog):
    """Crash-safe appender of per-request flight records.

    Thread-safe; every record is flushed before :meth:`record` returns,
    so the log is complete up to the last finished request even if the
    process dies immediately after.
    """

    def __init__(self, path: str, max_bytes: int = 16 << 20):
        super().__init__(path, "FT_FLIGHT", max_bytes, "flight_log_max_bytes")

    def record(self, document: Dict[str, object]) -> None:
        """Append one record; silently drops after :meth:`close`."""
        body = json.dumps(
            document, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        self.append(int(document.get("request_id", 0) or 0), body)


# --------------------------------------------------------------------- #
# Read side                                                              #
# --------------------------------------------------------------------- #
def iter_flight_records(
    path: str, include_rotated: bool = True
) -> Iterator[Dict[str, object]]:
    """Yield records oldest-first, rotated generation first."""
    for generation in generations(path, include_rotated):
        for frame in iter_frames(generation, "FT_FLIGHT"):
            try:
                document = json.loads(frame.body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                continue
            if isinstance(document, dict):
                yield document


def read_flight_log(
    path: str, include_rotated: bool = True
) -> List[Dict[str, object]]:
    return list(iter_flight_records(path, include_rotated=include_rotated))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``."""
    data = sorted(float(v) for v in values)
    if not data:
        return float("nan")
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    frac = rank - low
    return data[low] * (1.0 - frac) + data[high] * frac


def aggregate_stages(
    records: Sequence[Dict[str, object]],
) -> "Dict[str, Dict[str, float]]":
    """p50/p95/p99 (+count, mean) of each stage's duration across records."""
    by_stage: Dict[str, List[float]] = {}
    for record in records:
        for stage, duration in segments(record.get("stages") or []):
            by_stage.setdefault(stage, []).append(duration)
    out: Dict[str, Dict[str, float]] = {}
    for stage in sorted(
        by_stage, key=lambda s: (_STAGE_ORDER.get(s, len(STAGES)), s)
    ):
        durations = by_stage[stage]
        out[stage] = {
            "count": float(len(durations)),
            "mean": sum(durations) / len(durations),
            "p50": percentile(durations, 50),
            "p95": percentile(durations, 95),
            "p99": percentile(durations, 99),
        }
    return out


# --------------------------------------------------------------------- #
# Rendering                                                              #
# --------------------------------------------------------------------- #
def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:9.3f}"


def format_record_line(record: Dict[str, object]) -> str:
    """One-line summary of a record (the ``trace`` command's tail view)."""
    error = record.get("error")
    outcome = "ok" if error is None else f"err={error}"
    return (
        f"req {record.get('request_id', '?'):>6} "
        f"trace {int(record.get('trace_id', 0)):#018x} "
        f"{float(record.get('latency_s', 0.0)) * 1000.0:8.3f} ms "
        f"worker {record.get('worker') or '-':<4} "
        f"attempts {int(record.get('attempts', 0)) + 1} {outcome}"
    )


def format_waterfall(record: Dict[str, object], width: int = 40) -> str:
    """A per-stage waterfall for one record, as a multi-line string."""
    stages = record.get("stages") or []
    durations = segments(stages)
    error = record.get("error")
    header = (
        f"request {record.get('request_id', '?')} · "
        f"trace {int(record.get('trace_id', 0)):#018x} · "
        f"{record.get('app', '?')}/{record.get('scheme', '?')} · "
        f"worker {record.get('worker') or '-'} · "
        + ("ok" if error is None else f"error code {error}")
    )
    detail = (
        f"end-to-end {float(record.get('latency_s', 0.0)) * 1000.0:.3f} ms · "
        f"queue {float(record.get('queue_wait_s', 0.0)) * 1000.0:.3f} ms · "
        f"attempts {int(record.get('attempts', 0)) + 1} · "
        f"degraded {'yes' if record.get('degraded') else 'no'} · "
        f"fix {float(record.get('fix_fraction', 0.0)) * 100.0:.1f}%"
    )
    lines = [header, detail]
    if not durations:
        lines.append("(no stage events recorded)")
        return "\n".join(lines)
    total = max((float(s[1]) for s in stages), default=0.0)
    lines.append(f"{'stage':<14} {'at (ms)':>9} {'+dur (ms)':>9}  waterfall")
    for (stage, duration), entry in zip(durations, stages):
        offset = float(entry[1])
        start = 0 if total <= 0 else int(round(
            (offset - duration) / total * width
        ))
        span = 0 if total <= 0 else max(
            int(round(duration / total * width)), 1 if duration > 0 else 0
        )
        bar = " " * min(start, width) + "█" * min(span, width - min(start, width))
        lines.append(
            f"{stage:<14} {_ms(offset)} {_ms(duration)}  {bar}"
        )
    span_sum = sum(duration for _, duration in durations)
    lines.append(
        f"{'sum of stages':<14} {_ms(span_sum)} "
        f"(covers {0.0 if not record.get('latency_s') else span_sum / float(record['latency_s']) * 100.0:.1f}% "
        "of end-to-end latency)"
    )
    return "\n".join(lines)
