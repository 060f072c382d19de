"""Constants of the layer-ladder benchmark: workloads, run shape, metrics.

Everything a run's shape depends on lives here so that it is the same on
every commit; ``BENCHMARK.json`` at the repository root is the same data
in the driver's schema and ``tests/test_manifest.py`` keeps the two in
step.  This module imports nothing from ``repro`` — the supervisor and
``compare.py`` read it without the program on the path.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

# --------------------------------------------------------------------- #
# Run shape                                                             #
# --------------------------------------------------------------------- #
#: Measured seconds of one timed trial (closed + open phase together).
TRIAL_SECONDS = 1.5
#: Discarded at the start of every closed phase / open phase.
WARMUP_SECONDS = 0.3
OPEN_WARMUP_SECONDS = 0.15
#: Share of a net trial spent in the closed phase; the rest is open loop.
CLOSED_SHARE = 0.55
#: What ``BENCHMARK.json`` promises the driver: 4 trials of TRIAL_SECONDS.
RUN_SECONDS = 6
#: Trials when neither ``--seconds`` nor ``--trials`` is given.
DEFAULT_TRIALS = 4
#: Hard wall-clock cap of one workload subprocess (the driver allows 180).
WORKLOAD_TIMEOUT_S = 170.0
#: The program's own seed: training, server and node seeds never move.
PROGRAM_SEED = 0
#: The input population is one fixed draw of ``app.test_inputs``; ``--seed``
#: picks which slices of it are sent and in which order.  A per-seed
#: population is a different image/dataset and moved sobel's output_error
#: by 28 % and its fix_fraction by 44 % between seeds (README, "Inputs").
POOL_SEED = 7
#: The host probe (``harness.calibrate``): how long one reading runs, and
#: the reading of the reference host that timing metrics are scaled to
#: (this host on a quiet minute; README, "Host-speed normalisation").
CALIB_WINDOW_S = 0.15
REF_CALIB_MS = 0.40
#: Per-request client-side wait bound; a handle still pending counts as a
#: timeout.
REQUEST_TIMEOUT_S = 10.0
#: Generator validity guard (README, "Generator validity").
MAX_LATE_SHARE_OF_P50 = 0.20
MAX_GENERATOR_CPU_SHARE = 0.80

#: Batching/admission shared by every serving rung so that
#: serve_thread -> net_direct -> cluster_relay differ by transport only.
BATCH_REQUESTS = 8
FLUSH_MS = 2.0
ADMISSION_CAPACITY = 1024
OUTSTANDING = 16


@dataclass(frozen=True)
class Workload:
    """One traffic shape; ``kind`` selects the driver in ``harness.py``."""

    name: str
    kind: str            # "loop" | "serve" | "net"
    app: str
    rows: int            # input rows per invocation / request
    verify_count: int    # depth-1 requests (invocations) checked per run
    why: str
    backend: str = "thread"
    n_workers: int = 1
    via_router: bool = False
    open_rate: float = 0.0   # req/s of the open phase (net kinds only)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "loop_accel", "loop", "sobel", rows=4096, verify_count=64,
        why="run_invocation direct on sobel: nn+approx+predictors+detect do "
            "~75% of the work, serving none; kernel and checker changes show "
            "here only",
    ),
    Workload(
        # jmeint's population is 10000 rows, 2.4 invocations' worth: 16
        # stratified slices already cover it six times over.
        "loop_recover", "loop", "jmeint", rows=4096, verify_count=16,
        why="same call on jmeint: recover+apps.exact dominate, the "
            "accelerator is <10%; recovery/merge changes must move it, "
            "kernel speedups must not",
    ),
    Workload(
        "serve_thread", "serve", "fft", rows=8, verify_count=256,
        why="in-process thread server, 8-row requests, 16 outstanding: "
            "per-request serving overhead dominates core work; record "
            "retention decay shows here",
    ),
    Workload(
        "serve_proc", "serve", "fft", rows=128, verify_count=256,
        backend="process", n_workers=2,
        why="same serving layer over procpool+shm, 128-row payload-bound "
            "requests; bypass workload for thread-only changes",
    ),
    Workload(
        "net_direct", "net", "fft", rows=8, verify_count=256,
        open_rate=1000.0,
        why="one node subprocess behind the TCP edge, same request shape as "
            "serve_thread, so the difference is the codec+asyncio rung; open "
            "phase catches coalescing that costs low-load latency",
    ),
    Workload(
        "cluster_relay", "net", "fft", rows=8, verify_count=256,
        via_router=True, open_rate=600.0,
        why="same node fronted by the router subprocess: the difference to "
            "net_direct is exactly the decode/re-encode relay; net_direct is "
            "its bypass workload",
    ),
)
BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
#: Workloads whose verification outputs must be byte-identical.
IDENTICAL_OUTPUTS = ("serve_thread", "net_direct", "cluster_relay")


# --------------------------------------------------------------------- #
# Metrics                                                               #
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str          # "lower" | "higher"
    bound: float         # relative share of the baseline median ...
    absolute: bool = False   # ... or an absolute difference
    timing: bool = True      # host-normalised; no verdict across hosts
    manifest: bool = True    # listed in BENCHMARK.json


#: ``failed_share`` is 0 at the seed commit, so it cannot carry a relative
#: bound; the driver sees it as ``failed``/``attempted`` instead and
#: ``compare.py`` gates it with the absolute bound.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("throughput_rps", "1/s", "higher", 0.25),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25),
    EndToEnd("failed_share", "ratio", "lower", 0.001, absolute=True,
             timing=False, manifest=False),
    EndToEnd("output_error", "ratio", "lower", 0.06, timing=False),
    EndToEnd("fix_fraction", "ratio", "lower", 0.03, timing=False),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.20, timing=False),
)
E2E_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}

LOOPS = ("loop_accel", "loop_recover")
SERVE = ("serve_thread", "serve_proc")
NET = ("net_direct", "cluster_relay")
SERVING = SERVE + NET
ALL = LOOPS + SERVING


@dataclass(frozen=True)
class PerLayer:
    """A single layer's metric and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str
    measured_on: Tuple[str, ...]     # workloads whose traced pass emits it
    moves: str                       # end-to-end metric it should move ...
    moves_on: Tuple[str, ...]        # ... on these workloads


def _p(name, unit, better, measured_on, moves, moves_on=None):
    return PerLayer(name, unit, better, tuple(measured_on), moves,
                    tuple(measured_on if moves_on is None else moves_on))


PER_LAYER: Tuple[PerLayer, ...] = (
    # kernels and the core loop, timed at the workload's own batch shape
    _p("nn.forward_us", "us", "lower", ALL, "throughput_rps", ("loop_accel",)),
    _p("approx.forward_us", "us", "lower", ALL, "throughput_rps",
       ("loop_accel",)),
    _p("predictors.scores_us", "us", "lower", ALL, "throughput_rps",
       ("loop_accel",)),
    _p("core.detect_us", "us", "lower", ALL, "throughput_rps",
       ("loop_accel",)),
    _p("core.recover_us", "us", "lower", ALL, "throughput_rps",
       ("loop_recover",)),
    _p("apps.exact_us_per_elem", "us", "lower", ALL, "throughput_rps",
       ("loop_recover",)),
    _p("core.begin_us", "us", "lower", ALL, "throughput_rps", LOOPS),
    _p("core.complete_us", "us", "lower", ALL, "throughput_rps", LOOPS),
    _p("core.invocation_us", "us", "lower", ALL, "latency_p50_ms", LOOPS),
    _p("core.self_us", "us", "lower", ALL, "throughput_rps",
       LOOPS + ("serve_thread",)),
    _p("core.invocations", "count", "higher", ALL, "throughput_rps", LOOPS),
    _p("core.elements", "count", "higher", ALL, "throughput_rps", LOOPS),
    # batching
    _p("serving.batching.queue_wait_p50_ms", "ms", "lower", SERVING,
       "latency_p50_ms"),
    _p("serving.batching.queue_wait_p99_ms", "ms", "lower", SERVING,
       "latency_p50_ms"),
    _p("serving.batching.flush_wait_p50_ms", "ms", "lower", SERVING,
       "latency_p50_ms", NET),
    _p("serving.batching.batch_requests_mean", "count", "higher", SERVING,
       "throughput_rps", SERVE + ("net_direct",)),
    _p("serving.batching.offer_take_us", "us", "lower", SERVING,
       "throughput_rps", ("serve_thread",)),
    _p("serving.batching.concat_split_us", "us", "lower", SERVING,
       "throughput_rps", ("serve_thread",)),
    _p("serving.batching.shed", "count", "lower", SERVING, "failed_share"),
    # server
    _p("serving.server.service_p50_ms", "ms", "lower", SERVING,
       "latency_p50_ms", SERVE),
    _p("serving.server.added_us_per_req", "us", "lower", SERVE,
       "throughput_rps", ("serve_thread",)),
    _p("serving.server.rps_decay_pct", "%", "lower", SERVING,
       "throughput_rps", ("serve_thread",)),
    _p("serving.server.retries", "count", "lower", SERVING, "failed_share"),
    _p("serving.server.degraded_results", "count", "lower", SERVING,
       "output_error"),
    # process transport
    _p("serving.procpool.added_us_per_req", "us", "lower", ("serve_proc",),
       "throughput_rps"),
    _p("serving.procpool.worker_restarts", "count", "lower", ("serve_proc",),
       "failed_share"),
    _p("serving.shm.write_read_us", "us", "lower", ("serve_proc",),
       "throughput_rps"),
    # TCP edge
    _p("serving.net.codec_us", "us", "lower", NET, "throughput_rps"),
    _p("serving.net.bytes_per_req", "bytes", "lower", NET, "throughput_rps"),
    _p("serving.net.edge_p50_ms", "ms", "lower", NET, "latency_p50_ms",
       ("net_direct",)),
    _p("serving.net.added_us_per_req", "us", "lower", ("net_direct",),
       "throughput_rps"),
    # router
    _p("serving.cluster.relay_p50_ms", "ms", "lower", ("cluster_relay",),
       "latency_p50_ms"),
    _p("serving.cluster.added_us_per_req", "us", "lower", ("cluster_relay",),
       "throughput_rps"),
    _p("serving.cluster.relay_overhead_pct", "%", "lower", ("cluster_relay",),
       "throughput_rps"),
    _p("serving.cluster.router_retries", "count", "lower", ("cluster_relay",),
       "failed_share"),
    # instrumentation is a rung cost too
    _p("observability.tracing_overhead_pct", "%", "lower", ("serve_thread",),
       "throughput_rps"),
    _p("observability.metric_observe_us", "us", "lower", SERVING,
       "throughput_rps", ("serve_thread",)),
    # the generator: validity of the run, not the program
    _p("client.rtt_p50_ms", "ms", "lower", SERVING, "latency_p50_ms", NET),
    _p("client.latency_p99_ms", "ms", "lower", ALL, "latency_p50_ms"),
    _p("client.latency_tail_pct", "%", "higher", ALL, "latency_p50_ms"),
    _p("client.latency_samples", "count", "higher", ALL, "latency_p50_ms"),
    _p("client.late_p99_ms", "ms", "lower", NET, "latency_p50_ms"),
    _p("client.cpu_share", "ratio", "lower", ALL, "throughput_rps"),
    _p("client.sent", "count", "higher", ALL, "failed_share"),
    _p("client.ok", "count", "higher", ALL, "failed_share"),
    _p("client.failed", "count", "lower", ALL, "failed_share"),
    _p("client.refused", "count", "lower", ALL, "failed_share"),
    _p("client.timeouts", "count", "lower", ALL, "failed_share"),
    # process and host
    _p("process.rss_growth_mb_per_kreq", "MB", "lower", ALL, "peak_rss_mb"),
    _p("process.cpu_ms_per_req", "ms", "lower", ALL, "throughput_rps",
       SERVING),
    _p("host.calib_ms", "ms", "lower", ALL, "throughput_rps"),
)
PER_LAYER_BY_NAME: Dict[str, PerLayer] = {m.name: m for m in PER_LAYER}


def manifest() -> dict:
    """``BENCHMARK.json`` as this module defines it."""
    return {
        "command": ["python3", "benchmarks/ladder/run.py"],
        "paths": ["benchmarks/ladder"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END if m.manifest
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")


def validate_manifest(doc: dict) -> List[str]:
    """Every way ``doc`` breaks the driver's ``BENCHMARK.json`` contract."""
    bad: List[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(doc) != keys:
        return [f"keys are {sorted(doc)}, want {sorted(keys)}"]
    paths = doc["paths"]
    if not 1 <= len(paths) <= 16:
        bad.append("paths: want 1 to 16")
    for path in paths:
        if not _PATH.match(path) or path.startswith("/") or ".." in path.split("/"):
            bad.append(f"path {path!r}")
    command = doc["command"]
    if not 1 <= len(command) <= 32 or any(len(c) > 200 for c in command):
        bad.append("command: at most 32 strings of at most 200 characters")
    for word in command[1:]:
        if word.startswith("/") or ".." in word.split("/"):
            bad.append(f"command word {word!r} leaves the checkout")
        if "/" in word and not any(
                word == p or word.startswith(p.rstrip("/") + "/") for p in paths):
            bad.append(f"command word {word!r} is outside paths")
    seconds = doc["run_seconds"]
    if not isinstance(seconds, int) or not 1 <= seconds <= 60:
        bad.append("run_seconds: a whole number from 1 to 60")
    limits = (("workloads", 2, 8, {"name", "why"}),
              ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
              ("per_layer", 1, 128, {"name", "unit", "better"}))
    names: List[str] = []
    for section, low, high, fields in limits:
        entries = doc[section]
        if not low <= len(entries) <= high:
            bad.append(f"{section}: want {low} to {high} entries")
        for entry in entries:
            if set(entry) != fields:
                bad.append(f"{section}: {entry} must have exactly {sorted(fields)}")
                continue
            names.append(entry["name"])
            if not _NAME.match(entry["name"]):
                bad.append(f"name {entry['name']!r}")
            if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                bad.append(f"why of {entry['name']}: one line of at most 200")
            if "unit" in entry and not _UNIT.match(entry["unit"]):
                bad.append(f"unit {entry['unit']!r}")
            if "better" in entry and entry["better"] not in ("lower", "higher"):
                bad.append(f"better of {entry['name']}")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                bad.append(f"bound of {entry['name']}: in (0, 0.25]")
    if len(set(names)) != len(names):
        bad.append("a name is used twice")
    setup = [e for e in doc["end_to_end"] if e.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        bad.append("end_to_end needs setup_s in s, lower is better")
    if len(json.dumps(doc)) > 64 * 1024:
        bad.append("larger than 64 KiB")
    return bad


def validate_tables() -> List[str]:
    """Every per-layer metric must say what it should move, and where."""
    bad: List[str] = []
    for metric in PER_LAYER:
        if metric.moves not in E2E_BY_NAME:
            bad.append(f"{metric.name} moves unknown metric {metric.moves!r}")
        if not metric.moves_on or not metric.measured_on:
            bad.append(f"{metric.name} names no workload")
        for workload in metric.moves_on + metric.measured_on:
            if workload not in BY_NAME:
                bad.append(f"{metric.name} names unknown workload {workload!r}")
    return bad


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
