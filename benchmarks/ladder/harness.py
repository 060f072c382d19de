"""One workload, run inside its own interpreter (see ``run.py``).

A run is: per trial a **cold set-up** (timed up to the first verified
response) of a *fresh* system, on the first one the **verification
phase** (depth 1, fixed count, every output checked), then a warm-up and
the **timed phases**, then teardown.  The traced pass (``traced=True``)
sets up once and takes the system apart layer by layer instead.

The program is driven through its public surface only:
``prepare_system``/``RumbaSystem``, ``RumbaServer``, ``spawn_local_fleet``,
``python -m repro cluster`` and ``RumbaClient``.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.apps.registry import get_application
from repro.core import offline, prepare_system
from repro.errors import OverloadedError, ServingError
from repro.serving import (
    BatchingConfig,
    NodeFleet,
    RumbaServer,
    ServerConfig,
    TracingConfig,
    connect,
    spawn_local_fleet,
)
from repro.serving.cluster.spawn import NodeHandle

import layers
import loadgen
import workloads as W
from spans import SpanRecorder

MB = 1024.0 * 1024.0
_PAGE = os.sysconf("SC_PAGE_SIZE")
_TICK = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class Shape:
    """Durations and counts of one run; ``smoke`` shrinks all of them."""

    trials: int
    trial_s: float = W.TRIAL_SECONDS
    warmup_s: float = W.WARMUP_SECONDS
    open_warmup_s: float = W.OPEN_WARMUP_SECONDS
    verify_scale: int = 1        # verify_count is divided by this
    depth1: int = 150            # traced pass: depth-1 requests per path
    core_rounds: int = 60        # traced pass: invocations taken apart
    layer_budget_s: float = 0.15
    slice_s: float = 0.75        # traced pass: one A/B slice
    slices: int = 2              # ... per side, alternating

    @classmethod
    def smoke(cls) -> "Shape":
        return cls(trials=1, trial_s=0.3, warmup_s=0.1, open_warmup_s=0.05,
                   verify_scale=8, depth1=16, core_rounds=4,
                   layer_budget_s=0.01, slice_s=0.15, slices=1)


# --------------------------------------------------------------------- #
# Host and process readings                                             #
# --------------------------------------------------------------------- #
def calibrate(window_s: float = W.CALIB_WINDOW_S) -> float:
    """Milliseconds per round of a fixed pure-Python + numpy probe.

    Averaged over ``window_s`` (not best-of) because it stands for the
    host's speed *while* the neighbouring trial ran.  Timing metrics are
    scaled by it (README, "Host-speed normalisation"): this host's speed
    moves by tens of percent within minutes, for Python and numpy alike.
    """
    # Shapes the program itself uses: a tall-skinny matmul (below the BLAS
    # threading threshold, so no worker-thread start-up in the reading)
    # and elementwise passes over a few thousand rows.
    rows = np.arange(4096 * 9, dtype=float).reshape(4096, 9) / 4e4
    weights = np.arange(9 * 8, dtype=float).reshape(9, 8) / 72.0
    rounds = 0
    began = time.perf_counter()
    while True:
        total = 0
        for i in range(2000):
            total += i * i % 7
        for _ in range(4):
            hidden = rows @ weights
            np.exp(-hidden, out=hidden)
            hidden.sum()
        rounds += 1
        elapsed = time.perf_counter() - began
        if elapsed >= window_s:
            return elapsed / rounds * 1e3


def host_factor(*calib_ms: float) -> float:
    """How much slower than the reference host the probes ran (1 = equal)."""
    return statistics.mean(calib_ms) / W.REF_CALIB_MS


def _rss_bytes(pids: Sequence[int]) -> float:
    total = 0
    for pid in ["self", *pids]:
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * _PAGE
        except (OSError, ValueError, IndexError):
            pass   # the process ended between listing and reading
    return float(total)


def _cpu_seconds(pids: Sequence[int]) -> float:
    total = time.process_time()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _TICK
        except (OSError, ValueError, IndexError):
            pass
    return total


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# --------------------------------------------------------------------- #
# Inputs                                                                #
# --------------------------------------------------------------------- #
class Inputs:
    """Seeded slices of one fixed input population.

    The population is ``app.test_inputs`` drawn once with ``POOL_SEED``;
    ``seed`` shifts a regular grid of slice offsets by a random phase and
    shuffles the order, so every seed sends different rows while the
    sample stays spread evenly over the population (a stratified sample:
    output_error then moves by ~1 % between seeds, not by the 28 % a
    fresh population per seed gave).
    """

    def __init__(self, app, rows: int, count: int, seed: int):
        pool = np.atleast_2d(app.test_inputs(np.random.default_rng(W.POOL_SEED)))
        self.pool = np.ascontiguousarray(pool, dtype=float)
        self.rows = rows
        rng = np.random.default_rng(seed)
        room = self.pool.shape[0] - rows
        stride = room / count
        grid = (rng.uniform(0.0, stride) + np.arange(count) * stride)
        self.offsets = rng.permutation(grid.astype(int))
        self._timed = rng.permutation(self.offsets)
        self._cursor = 0
        self._exact: Optional[np.ndarray] = None
        self.app = app

    def at(self, offset: int) -> np.ndarray:
        return self.pool[offset: offset + self.rows]

    def exact_at(self, offset: int) -> np.ndarray:
        if self._exact is None:
            self._exact = np.atleast_2d(self.app.exact(self.pool))
        return self._exact[offset: offset + self.rows]

    def next(self) -> np.ndarray:
        offset = self._timed[self._cursor % len(self._timed)]
        self._cursor += 1
        return self.pool[offset: offset + self.rows]

    def batch(self, k: int) -> List[np.ndarray]:
        return [self.next() for _ in range(k)]


# --------------------------------------------------------------------- #
# Systems under test                                                    #
# --------------------------------------------------------------------- #
class _Done:
    """A resolved handle around a direct call's return value."""

    def __init__(self, value):
        self._value = value

    def done(self) -> bool:
        return True

    def result(self, timeout=None):
        return self._value


class LoopSystem:
    """``RumbaSystem.run_invocation`` called directly on a fresh shard."""

    pids: Sequence[int] = ()

    def __init__(self, spec: W.Workload):
        self.spec = spec
        self.proto = None
        self.shard = None

    def setup(self) -> None:
        offline.clear_cache()
        self.proto = prepare_system(self.spec.app, seed=W.PROGRAM_SEED)
        self.shard = self.proto.clone_shard(max_records=64)

    def call(self, inputs):
        return self.shard.run_invocation(inputs, measure_quality=False)

    def submit(self, inputs):
        return _Done(self.call(inputs))

    def counters(self) -> Dict[str, float]:
        return {"invocations": float(self.shard.total_invocations)}

    def teardown(self) -> None:
        self.shard = None


def server_config(spec: W.Workload, backend: Optional[str] = None,
                  tracing: bool = True) -> ServerConfig:
    return ServerConfig(
        app=spec.app,
        backend=backend or spec.backend,
        n_workers=spec.n_workers,
        n_recovery_workers=1,
        seed=W.PROGRAM_SEED,
        batching=BatchingConfig(
            max_batch_requests=W.BATCH_REQUESTS,
            flush_interval_s=W.FLUSH_MS / 1e3,
            admission_capacity=W.ADMISSION_CAPACITY,
        ),
        tracing=TracingConfig(enabled=tracing),
    )


class ServeSystem:
    """An in-process ``RumbaServer``."""

    def __init__(self, spec: W.Workload, config: Optional[ServerConfig] = None,
                 cold: bool = True):
        self.spec = spec
        self.config = config or server_config(spec)
        self.cold = cold
        self.server: Optional[RumbaServer] = None

    def setup(self) -> None:
        if self.cold:
            offline.clear_cache()
        self.server = RumbaServer(config=self.config)
        self.server.start()

    @property
    def proto(self):
        return self.server.prototype

    @property
    def pids(self) -> List[int]:
        pool = self.server.pool if self.server is not None else None
        return [w.process.pid for w in pool.workers] if pool else []

    def submit(self, inputs):
        return self.server.submit(inputs)

    def counters(self) -> Dict[str, float]:
        return _server_counters(self.server.stats())

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def _server_counters(stats: dict) -> Dict[str, float]:
    return {
        "invocations": float(sum(w["invocations"] for w in stats["workers"])),
        "shed": float(stats["requests_shed"]),
        "retries": float(stats["retries"]),
        "worker_restarts": float(stats["worker_restarts"]),
    }


class NetSystem:
    """One node subprocess, optionally fronted by a router subprocess."""

    def __init__(self, spec: W.Workload):
        self.spec = spec
        self.fleet: Optional[NodeFleet] = None
        self.router: Optional[NodeFleet] = None
        self.client = None
        self.direct = None      # stats (and traced comparisons) to the node
        self.node_address = ""

    def setup(self) -> None:
        try:
            self.fleet = spawn_local_fleet(
                1, app=self.spec.app, workers=1,
                extra_args=[
                    "--batch-requests", str(W.BATCH_REQUESTS),
                    "--flush-ms", str(W.FLUSH_MS),
                    "--admission-capacity", str(W.ADMISSION_CAPACITY),
                    "--seed", str(W.PROGRAM_SEED),
                ],
                start_timeout=60.0,
            )
            self.node_address = self.fleet.addresses[0]
            target = self.node_address
            if self.spec.via_router:
                target = self._spawn_router(self.node_address)
            self.client = connect(target, timeout_s=W.REQUEST_TIMEOUT_S)
        except BaseException:
            self.teardown()
            raise

    def _spawn_router(self, node_address: str) -> str:
        """``python -m repro cluster --attach``, held like a one-node fleet
        so that waiting for its port file and stopping it are the
        program's own ``NodeHandle``/``NodeFleet`` code."""
        workdir = tempfile.TemporaryDirectory(prefix="ladder-router-")
        port_file = os.path.join(workdir.name, "router.port")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "cluster",
             "--attach", node_address, "--listen", "127.0.0.1:0",
             "--port-file", port_file],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        handle = NodeHandle(0, process, port_file)
        self.router = NodeFleet([handle], workdir)
        return handle.wait_for_address(timeout=60.0)

    def connect_direct(self):
        if self.direct is None:
            self.direct = connect(self.node_address,
                                  timeout_s=W.REQUEST_TIMEOUT_S)
        return self.direct

    @property
    def pids(self) -> List[int]:
        return [handle.process.pid
                for fleet in (self.fleet, self.router) if fleet is not None
                for handle in fleet.workers]

    def submit(self, inputs):
        return self.client.submit(inputs)

    def counters(self) -> Dict[str, float]:
        out = _server_counters(self.connect_direct().stats())
        if self.spec.via_router:
            out["router_retries"] = float(
                self.client.stats()["router"]["requests_retried"])
        return out

    def teardown(self) -> None:
        for client in (self.client, self.direct):
            if client is not None:
                client.close()
        self.client = self.direct = None
        for fleet in (self.router, self.fleet):
            if fleet is not None:
                fleet.stop()
        self.router = self.fleet = None


def build_system(spec: W.Workload):
    if spec.kind == "loop":
        return LoopSystem(spec)
    if spec.kind == "serve":
        return ServeSystem(spec)
    return NetSystem(spec)


# --------------------------------------------------------------------- #
# Checks                                                                #
# --------------------------------------------------------------------- #
def shape_check(rows: int, n_outputs: int) -> Callable:
    """The cheap per-result check every timed request gets."""
    def check(result, inputs) -> Optional[str]:
        outputs = result.outputs
        if outputs.shape != (rows, n_outputs):
            return f"outputs have shape {outputs.shape}"
        if not np.isfinite(outputs).all():
            return "outputs are not finite"
        return None
    return check


def inspect_result(result):
    """The public result fields the per-layer metrics are built from."""
    return (
        getattr(result, "queue_wait_s", 0.0),
        getattr(result, "latency_s", 0.0),
        bool(getattr(result, "degraded", False)),
    )


@dataclass
class Verification:
    attempted: int = 0
    failed: int = 0
    output_error: float = 0.0
    unchecked_error: float = 0.0
    fix_fraction: float = 0.0
    digest: str = ""
    problems: List[str] = field(default_factory=list)


def verify(spec: W.Workload, system, proto, inputs: Inputs, count: int
           ) -> Verification:
    """Depth-1 requests on a fresh system, every output checked.

    Serving kinds must return, byte for byte, what a direct
    ``run_invocation`` on a shard of the same prototype returns for the
    same rows (at depth 1 a batch is exactly one request).  Loop kinds
    are that direct call, so they are checked against the merge contract
    instead: flagged rows equal the exact kernel, the rest the
    accelerator.  Either way the recovered error may not exceed the
    unchecked error of the same accelerator outputs.
    """
    app = proto.app
    reference = (None if spec.kind == "loop"
                 else proto.clone_shard(max_records=1))
    check = shape_check(spec.rows, app.n_outputs)
    digest = hashlib.sha256()
    out = Verification()
    errors: List[float] = []
    unchecked: List[float] = []
    fixes: List[float] = []

    def miss(message: str) -> None:
        out.failed += 1
        if len(out.problems) < 5:
            out.problems.append(f"verify: {message}")

    for offset in inputs.offsets[:count]:
        x = inputs.at(offset)
        out.attempted += 1
        try:
            result = system.submit(x).result(W.REQUEST_TIMEOUT_S)
        except Exception as exc:
            miss(repr(exc))
            continue
        complaint = check(result, x)
        if complaint:
            miss(complaint)
            continue
        outputs = result.outputs
        exact = inputs.exact_at(offset)
        approx = proto.backend(x)
        if spec.kind == "loop":
            # Re-run the exact kernel on the flagged rows alone, as
            # recovery does: a kernel's last bits may depend on the batch.
            flagged = result.recovery.recovery_indices
            expected = np.array(approx, copy=True)
            if flagged.size:
                expected[flagged] = app.exact(x[flagged])
        else:
            expected = reference.run_invocation(
                x, measure_quality=False).outputs
        if outputs.tobytes() != np.ascontiguousarray(expected).tobytes():
            miss(f"outputs at offset {offset} differ from the reference")
            continue
        digest.update(outputs.tobytes())
        error = app.output_error(outputs, exact)
        bare = app.output_error(approx, exact)
        if error > bare + 1e-12:
            miss(f"recovered error {error} exceeds unchecked {bare}")
            continue
        errors.append(error)
        unchecked.append(bare)
        fixes.append(float(result.fix_fraction))
    if errors:
        # fsum over sorted values: the mean must not depend on slice order.
        out.output_error = math.fsum(sorted(errors)) / len(errors)
        out.unchecked_error = math.fsum(sorted(unchecked)) / len(unchecked)
        out.fix_fraction = math.fsum(sorted(fixes)) / len(fixes)
    out.digest = digest.hexdigest()
    return out


# --------------------------------------------------------------------- #
# Timed phases                                                          #
# --------------------------------------------------------------------- #
def closed_slice(submit, inputs: Inputs, check, measure_s: float,
                 warmup_s: float) -> loadgen.Phase:
    """One closed phase at the ladder's fixed depth."""
    return loadgen.closed_loop(
        submit, inputs.next, W.OUTSTANDING, warmup_s, measure_s,
        W.REQUEST_TIMEOUT_S, check=check, inspect=inspect_result,
        refusal=(OverloadedError,))


def closed_phase(spec: W.Workload, system, inputs: Inputs, check,
                 shape: Shape) -> loadgen.Phase:
    if spec.kind == "loop":
        return loadgen.call_loop(
            system.call, inputs.next, shape.warmup_s, shape.trial_s,
            check=check, inspect=inspect_result)
    share = W.CLOSED_SHARE if spec.kind == "net" else 1.0
    return closed_slice(system.submit, inputs, check, shape.trial_s * share,
                        shape.warmup_s)


def open_phase(spec: W.Workload, system, inputs: Inputs, check,
               shape: Shape) -> loadgen.Phase:
    return loadgen.open_loop(
        system.submit, inputs.next, spec.open_rate, shape.open_warmup_s,
        shape.trial_s * (1.0 - W.CLOSED_SHARE), W.REQUEST_TIMEOUT_S,
        check=check, inspect=inspect_result, refusal=(OverloadedError,))


@dataclass
class Trial:
    setup_s: float
    phases: Dict[str, loadgen.Phase]
    counters: Dict[str, float]      # deltas over the timed phases
    rss_growth_mb: float
    cpu_s: float
    #: Host probe before the set-up, before and after the timed phases;
    #: each timed region is scaled by the two readings around it.
    calib_ms: List[float]

    @property
    def setup_factor(self) -> float:
        return host_factor(*self.calib_ms[:2])

    @property
    def timed_factor(self) -> float:
        return host_factor(*self.calib_ms[1:])


def run_trial(spec, system, inputs: Inputs, check, shape: Shape,
              on_fresh: Optional[Callable] = None) -> Trial:
    """Cold set-up -> (hook on the fresh system) -> timed phases."""
    calib = [calibrate()]
    began = time.perf_counter()
    system.setup()
    first = inputs.next()
    result = system.submit(first).result(W.REQUEST_TIMEOUT_S)
    complaint = check(result, first)
    setup_s = time.perf_counter() - began
    if complaint:
        raise ServingError(f"first response after set-up: {complaint}")
    if on_fresh is not None:
        on_fresh(system)
    calib.append(calibrate())
    before = system.counters()
    rss0 = _rss_bytes(system.pids)
    cpu0 = _cpu_seconds(system.pids)
    phases = {"closed": closed_phase(spec, system, inputs, check, shape)}
    after = system.counters()
    # Batches per invocation are a property of the closed phase alone.
    closed_invocations = after["invocations"] - before["invocations"]
    if spec.kind == "net":
        phases["open"] = open_phase(spec, system, inputs, check, shape)
        after = system.counters()
    cpu_s = _cpu_seconds(system.pids) - cpu0
    rss_growth = (_rss_bytes(system.pids) - rss0) / MB
    deltas = {k: after[k] - before[k] for k in after}
    deltas["closed_invocations"] = closed_invocations
    calib.append(calibrate())
    return Trial(setup_s, phases, deltas, rss_growth, cpu_s, calib)


# --------------------------------------------------------------------- #
# The untraced pass: end-to-end metrics                                 #
# --------------------------------------------------------------------- #
def _entry(value: float, unit: str, trials: Optional[List[float]] = None,
           samples: int = 0, raw: Optional[List[float]] = None) -> dict:
    trials = [value] if trials is None else trials
    q1, _, q3 = loadgen.quartiles(trials)
    entry = {"value": value, "unit": unit, "trials": trials, "q1": q1,
             "q3": q3, "samples": samples, "status": "measured"}
    if raw is not None:
        # As the wall clock read it, before host-speed normalisation.
        entry["raw_trials"] = raw
        entry["raw"] = statistics.median(raw)
    return entry


def _timing_entry(raw: List[float], factors: List[float], unit: str,
                  samples: int, rate: bool = False) -> dict:
    """Median over trials of a timing, each scaled to the reference host.

    A host running ``f`` times slower than the reference stretches every
    duration by ``f`` and shrinks every rate by ``f``.
    """
    scaled = [v * f if rate else v / f for v, f in zip(raw, factors)]
    return _entry(statistics.median(scaled), unit, scaled, samples, raw)


def _client_metrics(phases: List[loadgen.Phase], latency_phase: str
                    ) -> Dict[str, float]:
    latencies = [s for p in phases if p.name == latency_phase
                 for s in p.latency_s]
    pct, tail, n = loadgen.tail_percentile(latencies)
    late = [s for p in phases for s in p.late_s]
    wall = sum(p.wall_s for p in phases)
    return {
        "client.latency_p99_ms": tail * 1e3,
        "client.latency_tail_pct": pct,
        "client.latency_samples": float(n),
        "client.late_p99_ms": loadgen.percentile(late, 99.0) * 1e3
        if late else 0.0,
        "client.cpu_share": sum(p.generator_cpu_s for p in phases) / wall
        if wall else 0.0,
        "client.sent": float(sum(p.sent for p in phases)),
        "client.ok": float(sum(p.ok for p in phases)),
        "client.failed": float(sum(p.failed for p in phases)),
        "client.refused": float(sum(p.refused for p in phases)),
        "client.timeouts": float(sum(p.timeouts for p in phases)),
    }


def _decay_pct(phases: List[loadgen.Phase]) -> float:
    """Throughput of the last third of the closed phase against the first."""
    first = last = 0
    for phase in phases:
        third = phase.window_s / 3.0
        first += sum(1 for t in phase.done_at if t < third)
        last += sum(1 for t in phase.done_at if t >= 2.0 * third)
    return (1.0 - last / first) * 100.0 if first else 0.0


def _serving_metrics(spec, trials: List[Trial]) -> Dict[str, float]:
    closed = [t.phases["closed"] for t in trials]
    timed = [p for t in trials for p in t.phases.values()]
    observed = [o for p in timed for o in p.observed]
    waits = [o[0] for o in observed]
    service = [o[1] - o[0] for o in observed]
    closed_ok = sum(p.ok for p in closed)
    invocations = sum(t.counters["closed_invocations"] for t in trials)
    out = {
        "serving.batching.queue_wait_p50_ms":
            loadgen.percentile(waits, 50.0) * 1e3,
        "serving.batching.queue_wait_p99_ms":
            loadgen.percentile(waits, 99.0) * 1e3,
        "serving.batching.batch_requests_mean":
            closed_ok / invocations if invocations else 0.0,
        "serving.batching.shed": sum(t.counters["shed"] for t in trials),
        "serving.server.service_p50_ms":
            loadgen.percentile(service, 50.0) * 1e3,
        "serving.server.rps_decay_pct": _decay_pct(closed),
        "serving.server.retries": sum(t.counters["retries"] for t in trials),
        "serving.server.degraded_results":
            float(sum(1 for o in observed if o[2])),
        "core.invocations": sum(t.counters["invocations"] for t in trials),
        "core.elements": float(sum(p.ok for p in timed) * spec.rows),
    }
    if spec.backend == "process":
        out["serving.procpool.worker_restarts"] = sum(
            t.counters["worker_restarts"] for t in trials)
    if spec.via_router:
        out["serving.cluster.router_retries"] = sum(
            t.counters["router_retries"] for t in trials)
    return out


def summarize_trials(spec, trials: List[Trial]) -> Dict[str, Dict[str, float]]:
    """Per-layer metrics that fall out of any set of timed trials."""
    closed = [t.phases["closed"] for t in trials]
    timed = [p for t in trials for p in t.phases.values()]
    out = _client_metrics(timed, "open" if spec.kind == "net" else "closed")
    ok = sum(p.ok for p in timed)
    out["process.rss_growth_mb_per_kreq"] = (
        sum(t.rss_growth_mb for t in trials) / (ok / 1e3) if ok else 0.0)
    out["process.cpu_ms_per_req"] = (
        sum(t.cpu_s for t in trials) * 1e3 / ok if ok else 0.0)
    if spec.kind == "loop":
        out["core.invocations"] = float(sum(p.ok for p in closed))
        out["core.elements"] = out["core.invocations"] * spec.rows
    else:
        out.update(_serving_metrics(spec, trials))
    return out


def end_to_end(spec, trials: List[Trial], verification: Verification,
               attempted: int, failed: int) -> Dict[str, dict]:
    closed = [t.phases["closed"] for t in trials]
    latency_key = "open" if spec.kind == "net" else "closed"
    latency = [t.phases[latency_key] for t in trials]
    rps = [p.throughput for p in closed]
    p50 = [loadgen.percentile(p.latency_s, 50.0) * 1e3 for p in latency]
    setups = [t.setup_s for t in trials]
    timed = [t.timed_factor for t in trials]
    metrics = {
        "setup_s": _timing_entry(setups, [t.setup_factor for t in trials],
                                 "s", len(setups)),
        "throughput_rps": _timing_entry(
            rps, timed, "1/s", sum(len(p.done_at) for p in closed),
            rate=True),
        "latency_p50_ms": _timing_entry(
            p50, timed, "ms", sum(len(p.latency_s) for p in latency)),
        "failed_share": _entry(failed / attempted if attempted else 1.0,
                               "ratio", samples=attempted),
        "output_error": _entry(verification.output_error, "ratio",
                               samples=verification.attempted),
        "fix_fraction": _entry(verification.fix_fraction, "ratio",
                               samples=verification.attempted),
        "peak_rss_mb": _entry(peak_rss_mb(), "MB"),
    }
    # Generator validity guard: a phase that measured the generator makes
    # the timing metrics built on it unresolved rather than wrong.
    p50_s = statistics.median(p50) / 1e3     # raw: the guard is about now
    reasons = []
    for kind in ("closed", "open"):
        phases = [t.phases[kind] for t in trials if kind in t.phases]
        reason = loadgen.generator_verdict(
            phases, p50_s, W.MAX_LATE_SHARE_OF_P50,
            W.MAX_GENERATOR_CPU_SHARE) if phases else None
        if reason:
            reasons.append(reason)
    if reasons:
        for name in ("throughput_rps", "latency_p50_ms"):
            metrics[name]["status"] = "unresolved"
            metrics[name]["why"] = reasons[0]
    return metrics


def _stage(spec: W.Workload, seed: int):
    """What both passes start from: system, reference prototype, inputs."""
    # Net kinds have no prototype in this process; the reference one is
    # trained here, outside every timed region.
    own_proto = (prepare_system(spec.app, seed=W.PROGRAM_SEED)
                 if spec.kind == "net" else None)
    app = get_application(spec.app)
    inputs = Inputs(app, spec.rows, spec.verify_count, seed)
    return (build_system(spec), own_proto, inputs,
            shape_check(spec.rows, app.n_outputs))


def run_untraced(spec: W.Workload, seed: int, shape: Shape) -> dict:
    system, own_proto, inputs, check = _stage(spec, seed)
    count = max(spec.verify_count // shape.verify_scale, 4)
    verification = Verification()

    def on_fresh(fresh) -> None:
        nonlocal verification
        verification = verify(spec, fresh, own_proto or fresh.proto, inputs,
                              count)

    trials: List[Trial] = []
    problems: List[str] = []
    attempted = failed = 0
    for index in range(shape.trials):
        try:
            # Verification rides on the first system that comes up.
            trials.append(run_trial(
                spec, system, inputs, check, shape,
                None if verification.attempted else on_fresh))
            attempted += 1   # the set-up's first response
        except Exception as exc:
            attempted += 1
            failed += 1
            problems.append(f"trial {index}: {exc!r}")
        finally:
            system.teardown()
    calib = [c for t in trials for c in t.calib_ms]
    phases = [p for t in trials for p in t.phases.values()]
    attempted += verification.attempted + sum(p.sent for p in phases)
    failed += verification.failed + sum(p.failed for p in phases)
    problems += verification.problems + [m for p in phases for m in p.problems]
    if not trials:
        return {"correct": False, "attempted": max(attempted, 1),
                "failed": max(failed, 1), "problems": problems,
                "end_to_end": {}, "per_layer": {}, "calib_ms": calib}
    per_layer = summarize_trials(spec, trials)
    per_layer["host.calib_ms"] = statistics.median(calib)
    return {
        "correct": failed == 0 and verification.attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "outputs_sha256": verification.digest,
        "unchecked_error": verification.unchecked_error,
        "end_to_end": end_to_end(spec, trials, verification, attempted,
                                 failed),
        "per_layer": _with_units(per_layer),
        "phases": {
            name: _sum_counts([t.phases[name] for t in trials
                               if name in t.phases])
            for name in ("closed", "open")
            if any(name in t.phases for t in trials)
        },
        "calib_ms": calib,
    }


def _sum_counts(phases: List[loadgen.Phase]) -> dict:
    total: Dict[str, int] = {}
    for phase in phases:
        for key, value in phase.counts().items():
            total[key] = total.get(key, 0) + value
    return total


def _with_units(values: Dict[str, float]) -> Dict[str, dict]:
    return {name: {"value": value, "unit": W.PER_LAYER_BY_NAME[name].unit}
            for name, value in values.items()}


# --------------------------------------------------------------------- #
# The traced pass: per-layer metrics and spans                          #
# --------------------------------------------------------------------- #
def _depth1(paths: Dict[str, Callable], inputs: Inputs, n: int
            ) -> Dict[str, list]:
    """``n`` requests one at a time down each path, taking turns.

    Returns ``(start, end, result)`` triples per path; alternating keeps
    a drifting host from reading as a difference between the paths.
    """
    out: Dict[str, list] = {name: [] for name in paths}
    for _ in range(n):
        for name, submit in paths.items():
            x = inputs.next()
            began = time.perf_counter()
            result = submit(x).result(W.REQUEST_TIMEOUT_S)
            out[name].append((began, time.perf_counter(), result))
    return out


def _request_spans(recorder: SpanRecorder, samples, root: str,
                   edge_self_s: Optional[float] = None) -> None:
    """Split depth-1 round trips into layer spans from public result fields.

    Only ``client.rtt`` is read from this process's clock; the inner spans
    are *derived*: their durations are the result's ``latency_s`` and
    ``queue_wait_s`` (and, behind the router, the node edge's own median
    cost measured on the direct path), centred inside their parent.
    """
    def centred(name, width, lo, hi, parent, i):
        width = min(width, hi - lo)
        start = lo + (hi - lo - width) / 2.0
        span = recorder.add(name, start, start + width, parent, i,
                            derived=True)
        return span, start, start + width

    for i, (lo, hi, result) in enumerate(samples):
        parent = recorder.add("client.rtt", lo, hi, request_id=i)
        if root != "client.rtt":
            parent = recorder.add(root, lo, hi, parent, i, derived=True)
        if edge_self_s is not None:
            parent, lo, hi = centred("serving.net.edge",
                                     result.latency_s + edge_self_s,
                                     lo, hi, parent, i)
        request, lo, hi = centred("serving.server.request", result.latency_s,
                                  lo, hi, parent, i)
        served_from = lo + min(result.queue_wait_s, hi - lo)
        recorder.add("serving.batching.queue_wait", lo, served_from,
                     request, i, derived=True)
        recorder.add("serving.server.service", served_from, hi,
                     request, i, derived=True)


def _alternate(sides: Dict[str, Callable], inputs, check, shape: Shape,
               notes: List[str]) -> Dict[str, float]:
    """Closed-phase throughput of two systems in alternating slices."""
    done: Dict[str, int] = {name: 0 for name in sides}
    for _ in range(shape.slices):
        for name, submit in sides.items():
            phase = closed_slice(submit, inputs, check, shape.slice_s,
                                 shape.warmup_s / 2.0)
            done[name] += len(phase.done_at)
            if phase.failed:
                notes.append(f"{name} slice: {phase.failed} requests failed")
    window = shape.slices * shape.slice_s
    return {name: count / window for name, count in done.items()}


def run_traced(spec: W.Workload, seed: int, shape: Shape,
               trace_path: Optional[str]) -> dict:
    recorder = SpanRecorder()
    system, own_proto, inputs, check = _stage(spec, seed)
    notes: List[str] = []
    extra: List = []     # second systems started for a comparison
    try:
        trial = run_trial(spec, system, inputs, check, shape)
        proto = own_proto or system.proto
        metrics = summarize_trials(spec, [trial])
        closed_rps = trial.phases["closed"].throughput

        # The core loop at this workload's batch shape.
        per_batch = 1 if spec.kind == "loop" else W.BATCH_REQUESTS
        batches = [np.concatenate(inputs.batch(per_batch))
                   for _ in range(min(shape.core_rounds, 16))]
        metrics.update(layers.core_breakdown(proto, batches, recorder,
                                             shape.core_rounds))
        whole = metrics["core.invocation_us"]
        ratio = metrics.pop("halves_over_whole")
        if abs(ratio - 1.0) > 0.10:
            notes.append(
                f"BENCHMARK BUG: core.begin+core.complete take {ratio:.2f}x "
                f"the whole run_invocation on the same inputs")
        if metrics["core.self_us"] < 0:
            notes.append("BENCHMARK BUG: core.self_us is negative")

        if spec.kind != "loop":
            budget = shape.layer_budget_s
            metrics.update(layers.batching(inputs.batch(per_batch), budget))
            metrics.update(layers.metric_observe(budget))
            if spec.kind == "serve" and closed_rps:
                mean_batch = metrics["serving.batching.batch_requests_mean"]
                metrics["serving.server.added_us_per_req"] = (
                    1e6 / closed_rps - whole / max(mean_batch, 1.0))
            _traced_serving(spec, system, inputs, check, shape, recorder,
                            metrics, notes, extra)
    finally:
        for other in extra:
            other.teardown()
        system.teardown()
    calib = trial.calib_ms + [calibrate()]
    metrics["host.calib_ms"] = statistics.median(calib)
    if trace_path:
        recorder.dump(trace_path, {"workload": spec.name, "seed": seed})
    phases = list(trial.phases.values())
    failed = sum(p.failed for p in phases)
    return {
        "correct": failed == 0,
        "attempted": 1 + sum(p.sent for p in phases),
        "failed": failed,
        "problems": [m for p in phases for m in p.problems] + notes,
        "per_layer": _with_units(metrics),
        "traced_rps": closed_rps * trial.timed_factor,
        "host_factor": host_factor(*calib),
        "span_count": len(recorder.spans),
        "calib_ms": calib,
    }


def _traced_serving(spec, system, inputs, check, shape, recorder, metrics,
                    notes, extra) -> None:
    """Depth-1 span split and the rung-against-rung comparisons."""
    budget = shape.layer_budget_s
    paths = {"routed": system.submit}
    if spec.via_router:
        paths["direct"] = system.connect_direct().submit
    samples = _depth1(paths, inputs, shape.depth1)
    routed = samples["routed"]
    rtt = statistics.median(end - start for start, end, _ in routed)
    outside = statistics.median(end - start - r.latency_s for start, end, r in routed)
    if spec.kind == "serve":
        _request_spans(recorder, routed, "client.rtt")
        parts = [outside]
    elif spec.via_router:
        direct = samples["direct"]
        edge = statistics.median(end - start - r.latency_s for start, end, r in direct)
        relay = rtt - statistics.median(end - start for start, end, _ in direct)
        metrics["serving.net.edge_p50_ms"] = edge * 1e3
        metrics["serving.cluster.relay_p50_ms"] = relay * 1e3
        _request_spans(recorder, routed, "serving.cluster.relay", edge)
        parts = [relay, edge]
    else:
        metrics["serving.net.edge_p50_ms"] = outside * 1e3
        _request_spans(recorder, routed, "serving.net.edge")
        parts = [outside]
    # At depth 1 nothing else fills the batch, so the queue wait is the
    # flush timer's share of the round trip.
    flush_wait = statistics.median(r.queue_wait_s for _, _, r in routed)
    service = statistics.median(r.latency_s - r.queue_wait_s for _, _, r in routed)
    metrics["serving.batching.flush_wait_p50_ms"] = flush_wait * 1e3
    metrics["client.rtt_p50_ms"] = rtt * 1e3
    total = sum(parts) + flush_wait + service
    if abs(total - rtt) > 0.10 * rtt:
        notes.append(
            f"BENCHMARK BUG: depth-1 spans sum to {total * 1e3:.3f} ms "
            f"but client.rtt is {rtt * 1e3:.3f} ms")
    if spec.kind == "net":
        metrics.update(layers.codec(inputs.next(), routed[0][2].outputs,
                                    budget))

    # Rung against rung, in alternating closed slices.
    def second(system_) -> Callable:
        extra.append(system_)
        system_.setup()
        return system_.submit

    if spec.name == "serve_thread":
        rps = _alternate({
            "default": second(ServeSystem(spec, cold=False)),
            "untraced": second(ServeSystem(
                spec, server_config(spec, tracing=False), cold=False)),
        }, inputs, check, shape, notes)
        metrics["observability.tracing_overhead_pct"] = (
            (1.0 - rps["default"] / rps["untraced"]) * 100.0)
    elif spec.backend == "process":
        metrics.update(layers.shm(inputs.batch(W.BATCH_REQUESTS), budget))
        rps = _alternate({
            "process": system.submit,
            "thread": second(ServeSystem(
                spec, server_config(spec, backend="thread"), cold=False)),
        }, inputs, check, shape, notes)
        metrics["serving.procpool.added_us_per_req"] = (
            1e6 / rps["process"] - 1e6 / rps["thread"])
    elif spec.via_router:
        rps = _alternate({"routed": system.submit, "direct": paths["direct"]},
                         inputs, check, shape, notes)
        metrics["serving.cluster.added_us_per_req"] = (
            1e6 / rps["routed"] - 1e6 / rps["direct"])
        metrics["serving.cluster.relay_overhead_pct"] = (
            (1.0 - rps["routed"] / rps["direct"]) * 100.0)
    elif spec.kind == "net":
        rps = _alternate({
            "net": system.submit,
            "local": second(ServeSystem(W.BY_NAME["serve_thread"],
                                        cold=False)),
        }, inputs, check, shape, notes)
        metrics["serving.net.added_us_per_req"] = (
            1e6 / rps["net"] - 1e6 / rps["local"])


def run_workload(name: str, seed: int, shape: Shape, traced: bool,
                 trace_path: Optional[str] = None) -> dict:
    spec = W.BY_NAME[name]
    if traced:
        doc = run_traced(spec, seed, shape, trace_path)
    else:
        doc = run_untraced(spec, seed, shape)
    doc.update({"workload": name, "seed": seed, "traced": traced,
                "trials": shape.trials, "trial_seconds": shape.trial_s})
    return doc
