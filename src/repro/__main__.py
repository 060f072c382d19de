"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands, and ``python -m repro
<command> --help`` a command's arguments.  Each command is declared once,
by :func:`_command` on its handler; a ``serve`` or ``cluster`` flag that
sets a :mod:`repro.serving.config` leaf takes its default, type and
choices from that leaf."""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from collections import deque
from typing import List, Optional

from repro.errors import (ConfigurationError, OverloadedError, ServingError,
                          UnknownApplicationError)
from repro.serving.config import (_BACKENDS, BatchingConfig, ClusterConfig,
                                  EnsembleConfig, JournalConfig, RetryConfig,
                                  ServerConfig, TracingConfig)
from repro.tables import format_table

__all__ = ["main"]

#: The leaves the ``serve`` and ``cluster`` flags default to.
_SERVER, _CLUSTER = ServerConfig(), ClusterConfig()

#: ``(name, help, arguments, handler)`` per command, in ``--help`` order.
_COMMANDS: list = []


def _command(name: str, help_line: str, *arguments):
    """Declare ``python -m repro <name>``: its ``--help`` line, its
    arguments (:func:`_arg` pairs) and the handler it decorates."""

    def register(handler):
        _COMMANDS.append((name, help_line, arguments, handler))
        return handler

    return register


def _arg(*flags: str, **kwargs):
    """One ``add_argument`` call, held until :func:`build_parser`."""
    return flags, kwargs


def _leaf(flag: str, default, **kwargs):
    """A flag setting a config leaf: its default is the leaf's value,
    and its type that value's type."""
    return _arg(flag, default=default, type=type(default), **kwargs)


def _int_at_least(low: int):
    """An ``int`` argument type that rejects values below ``low``."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type on a non-integer
    return parse


class _Names:
    """``choices`` read from ``module.attr`` on the first membership
    test, so building the parser imports neither the apps nor the
    predictors; the owning module stays the one list of names."""

    def __init__(self, module: str, attr: str):
        self.module, self.attr = module, attr

    def __contains__(self, name) -> bool:
        return name in iter(self)

    def __iter__(self):  # argparse lists the names on a bad choice
        return iter(getattr(importlib.import_module(self.module), self.attr))


def _app_scheme(app_default: Optional[str] = None):
    # No help= text: argparse would list the choices, importing them.
    return (
        _arg("--app", default=app_default, required=app_default is None,
             metavar="APP",
             choices=_Names("repro.apps.registry", "APPLICATION_NAMES")),
        _arg("--scheme", default=_SERVER.scheme, metavar="SCHEME",
             choices=_Names("repro.predictors.training", "SCHEME_NAMES")),
    )


_SEED = _leaf("--seed", _SERVER.seed)
_EXPORT = _arg("--export", default="",
               help="write the final metrics snapshot here "
                    "(.prom/.txt Prometheus text, .json JSON)")


# Each command imports what it runs, so a router (``cluster --attach``)
# never loads numpy or the core, and a node (``serve``) not the
# evaluation, dashboard or cluster modules.
@_command("list", "show the Table 1 benchmark suite")
def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.apps import all_applications

    rows = [
        [app.name, app.domain, str(app.rumba_topology), str(app.npu_topology),
         app.metric_name]
        for app in all_applications()
    ]
    print(format_table(
        ["Benchmark", "Domain", "Rumba NN", "NPU NN", "Metric"], rows,
        title="Table 1 benchmark suite",
    ))
    return 0


def _export(path: str, registry) -> None:
    """Write ``registry``'s snapshot to ``path`` (a no-op when empty)."""
    if path:
        from repro.observability.export import write_snapshot

        fmt = write_snapshot(path, registry)
        print(f"wrote {fmt} telemetry snapshot to {path}")


@_command(
    "run", "run one benchmark end to end",
    *_app_scheme(),
    _arg("--elements", type=_int_at_least(1), default=10000),
    _arg("--quality", type=float, default=0.90,
         help="target output quality (TOQ mode)"),
    _SEED,
    _arg("--telemetry", default="",
         help="dump the metrics snapshot to this file "
              "(.json or Prometheus text by extension)"),
)
def _cmd_run(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core import RumbaConfig, prepare_system
    from repro.observability import MetricsRegistry, Telemetry
    from repro.streams import streams

    print(f"Preparing {args.app} with the {args.scheme} checker...")
    config = RumbaConfig(scheme=args.scheme, target_output_quality=args.quality)
    system = prepare_system(args.app, scheme=args.scheme, config=config,
                            seed=args.seed)
    registry = None
    if args.telemetry:
        registry = MetricsRegistry()
        system.attach_telemetry(Telemetry(
            app=args.app, scheme=args.scheme, registry=registry,
        ))
    rng = np.random.default_rng(streams(args.seed).cli)
    inputs = np.atleast_2d(system.app.test_inputs(rng))[: args.elements]
    record = system.run_invocation(inputs)
    rows = [
        ["elements", inputs.shape[0]],
        ["unchecked error", f"{record.unchecked_error * 100:.2f}%"],
        ["Rumba error", f"{record.measured_error * 100:.2f}%"],
        ["elements re-executed", f"{record.fix_fraction * 100:.2f}%"],
        ["CPU kept up", record.pipeline.cpu_kept_up],
        ["energy savings", f"{record.costs.energy_savings:.2f}x"],
        ["speedup", f"{record.costs.speedup:.2f}x"],
    ]
    print(format_table(["quantity", "value"], rows))
    _export(args.telemetry, registry)
    return 0


@_command(
    "monitor", "stream with live telemetry dashboard",
    *_app_scheme(),
    _arg("--invocations", type=int, default=20),
    _arg("--elements", type=_int_at_least(1), default=2000,
         help="elements per invocation"),
    _EXPORT,
    _arg("--trace", default="",
         help="write one flight record (stage timeline) per invocation "
              "here; browse with `repro trace --log`"),
    _arg("--no-live", action="store_true",
         help="render only the final dashboard frame"),
    _SEED,
)
def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.apps.workloads import invocation_stream
    from repro.core import prepare_system
    from repro.observability import FlightRecorder, MetricsRegistry, Telemetry
    from repro.observability.dashboard import (
        clear_screen_prefix, render_dashboard,
    )
    from repro.streams import streams

    print(f"Preparing {args.app} with the {args.scheme} checker...")
    system = prepare_system(args.app, scheme=args.scheme, seed=args.seed)
    registry = MetricsRegistry()
    recorder = FlightRecorder(args.trace) if args.trace else None
    telemetry = Telemetry(app=args.app, scheme=args.scheme,
                          registry=registry, recorder=recorder)
    system.attach_telemetry(telemetry)
    chunks = invocation_stream(
        system.app, args.invocations, args.elements, seed=streams(args.seed).cli
    )
    live = sys.stdout.isatty() and not args.no_live
    for chunk in chunks:
        system.run_invocation(chunk, measure_quality=False)
        if live:
            print(clear_screen_prefix(True) + render_dashboard(telemetry))
    if not live:
        print(render_dashboard(telemetry))
    if recorder is not None:
        recorder.close()
        print(f"wrote {recorder.written} flight records to {args.trace} "
              f"(browse: python -m repro trace --log {args.trace})")
    _export(args.export, registry)
    return 0


def _serve_config(args: argparse.Namespace) -> ServerConfig:
    """The ServerConfig shared by the local and network modes."""
    from repro.serving import ChaosConfig

    return ServerConfig(
        app=args.app, scheme=args.scheme, n_workers=args.workers,
        backend=args.backend, seed=args.seed,
        batching=BatchingConfig(
            max_batch_requests=args.batch_requests,
            flush_interval_s=args.flush_ms / 1000.0,
            admission_capacity=args.admission_capacity,
        ),
        retry=RetryConfig(default_deadline_s=args.deadline_s),
        chaos=ChaosConfig.parse(args.chaos) if args.chaos else None,
        tracing=TracingConfig(
            enabled=args.trace_sample > 0,
            sample_every=max(args.trace_sample, 1),
            flight_log_path=args.flight_log or None,
        ),
        journal=JournalConfig(path=args.journal or None,
                              max_bytes=args.journal_max_bytes),
        ensemble=EnsembleConfig(
            enabled=True, members=args.ensemble, margin=args.ensemble_margin,
        ) if args.ensemble else EnsembleConfig(),
    )


def _serve_until_stopped(start, args: argparse.Namespace) -> None:
    """Serve until SIGTERM, ctrl-C or ``--duration``; the caller stops
    what it started.

    ``start()`` returns the started listener and the line announcing it
    (``{bound}`` is filled in with its address).  It runs under the
    signal handler, so a stop that lands while a fleet is still spawning
    is a clean one.
    """
    import signal

    # Shells start background jobs with SIGINT ignored, so scripted
    # shutdown (the CI smoke) arrives as SIGTERM; treat both as "stop".
    interrupted = []
    previous = signal.signal(signal.SIGTERM,
                             lambda *_: interrupted.append(True))
    try:
        listener, announce = start()
        bound = f"{listener.address[0]}:{listener.address[1]}"
        print(announce.format(bound=bound), flush=True)
        if args.port_file:
            with open(args.port_file, "w") as handle:
                handle.write(bound + "\n")
        deadline = time.monotonic() + args.duration
        while listener.is_running and not interrupted:
            if args.duration > 0 and time.monotonic() >= deadline:
                break
            listener.serve_forever(timeout=0.2)
    except KeyboardInterrupt:
        interrupted.append(True)
    finally:
        if interrupted:
            print("interrupted; shutting down", flush=True)
        signal.signal(signal.SIGTERM, previous)


class _Session:
    """The request session under ``serve`` and ``client``: submit through
    a callable, harvest oldest first, tally each submission as completed,
    refused (:class:`OverloadedError`) or failed — ``hung`` keeping the
    failures that were only ``timeout_s`` running out — for ``--selftest``."""

    def __init__(self, timeout_s: float):
        self.timeout_s = timeout_s
        self.results: list = []
        self.hung: List[ServingError] = []
        self.submitted = self.refused = self.failed = 0
        self._inflight: deque = deque()
        self._started = time.perf_counter()

    def submit(self, send) -> None:
        self.submitted += 1
        try:
            self._inflight.append(send())
        except OverloadedError:
            self.refused += 1

    def drain(self, down_to: int = 0) -> None:
        while len(self._inflight) > down_to:
            handle = self._inflight.popleft()
            try:
                self.results.append(handle.result(self.timeout_s))
            except OverloadedError:
                self.refused += 1
            except ServingError as exc:
                self.failed += 1
                if not handle.done():
                    self.hung.append(exc)

    def timing_rows(self) -> list:
        elapsed = time.perf_counter() - self._started
        done = len(self.results)
        latencies = sorted(result.latency_s for result in self.results)
        p50 = latencies[done // 2] if done else float("nan")
        p95 = latencies[int(done * 0.95)] if done else float("nan")
        return [
            ["throughput", f"{done / elapsed:.1f} req/s"],
            ["p50 latency", f"{p50 * 1e3:.2f} ms"],
            ["p95 latency", f"{p95 * 1e3:.2f} ms"],
        ]

    def selftest(self, also: bool = True, suffix: str = "", **tally) -> bool:
        """True when ``tally`` covers every submission and ``also`` holds."""
        accounted = sum(tally.values())
        ok = also and accounted == self.submitted
        parts = " + ".join(f"{n} {what}" for what, n in tally.items())
        print(f"selftest: {parts} = {accounted} of {self.submitted} "
              f"submitted{suffix} -> {'OK' if ok else 'FAIL'}")
        return ok


@_command(
    "serve", "run the batched quality-managed serving layer",
    *_app_scheme(),
    _leaf("--workers", _SERVER.n_workers),
    _leaf("--backend", _SERVER.backend, choices=_BACKENDS,
          help="worker engine: in-process threads, or one OS process per "
               "worker fed over shared memory"),
    _arg("--requests", type=int, default=100,
         help="synthetic requests to drive through the server"),
    _arg("--elements", type=_int_at_least(1), default=256,
         help="kernel iterations per request"),
    _leaf("--batch-requests", _SERVER.batching.max_batch_requests,
          help="max requests batched into one invocation"),
    _leaf("--flush-ms", _SERVER.batching.flush_interval_s * 1000.0,
          help="longest a request waits for its batch to fill while every "
               "worker is busy, in milliseconds (an idle worker takes it "
               "at once)"),
    _arg("--rate", type=float, default=0.0,
         help="request arrival rate in req/s (0 = closed loop)"),
    _leaf("--admission-capacity", _SERVER.batching.admission_capacity),
    _leaf("--deadline-s", _SERVER.retry.default_deadline_s,
          help="per-request deadline budget in seconds "
               "(dispatch + fault retries + recovery)"),
    _arg("--chaos", default="",
         help="fault-injection spec: worker kills per second, per-batch "
              "fault probability and RNG seed, e.g. "
              "'kill=2,fail=0.05,seed=1' (see docs/serving.md)"),
    _arg("--selftest", action="store_true",
         help="verify every request completed exactly once or failed fast "
              "(exit 1 on any hang or drop); with --ensemble also that "
              "routing chose >= 2 members, and on a thread server that it "
              "held one CPU and gave the mask back at stop"),
    _EXPORT,
    _SEED,
    _arg("--listen", default="",
         help="expose the server over TCP at HOST:PORT (port 0 = "
              "ephemeral) instead of driving a synthetic load; see "
              "docs/protocol.md"),
    _arg("--port-file", default="",
         help="with --listen: write the bound host:port here"),
    _arg("--duration", type=float, default=0.0,
         help="with --listen: serve for this many seconds then exit "
              "(0 = until interrupted)"),
    _arg("--flight-log", default="",
         help="record sampled request traces to this file "
              "(browse with 'python -m repro trace')"),
    _leaf("--trace-sample", _SERVER.tracing.sample_every,
          help="trace every Nth request (0 disables tracing; errors and "
               "retries are always sampled)"),
    _arg("--node-id", default="",
         help="with --listen: stable identity advertised in the WELCOME "
              "document (default: fresh uuid per process, so restarts "
              "are detectable)"),
    _arg("--journal", default="",
         help="record every request (inputs, outputs, decision bits) to "
              "this durable journal for deterministic replay; see "
              "docs/replay.md"),
    _leaf("--journal-max-bytes", _SERVER.journal.max_bytes,
          help="rotate the journal once it exceeds this size "
               "(one rotated generation is kept)"),
    _arg("--ensemble", default="",
         help="serve a multi-approximator ensemble: comma-separated, "
              "best-first member tokens, e.g. 'mlp:large,mlp:small,memo' "
              "(empty disables; see docs/ensemble.md)"),
    _leaf("--ensemble-margin", _SERVER.ensemble.margin,
          help="router budget as a multiple of the detection threshold "
               "(lower = more rows on the reference member)"),
)
def _cmd_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serving.server import RumbaServer
    from repro.streams import streams

    config = _serve_config(args)
    chaos = config.chaos
    print(f"Preparing {args.app} with the {args.scheme} checker "
          f"({args.workers} {args.backend} workers"
          + (f", chaos {args.chaos!r}" if chaos and chaos.enabled else "")
          + ")...")
    server = RumbaServer(config=config)
    server.prepare()
    if args.listen:  # expose the server over TCP until stopped
        from repro.serving.net import NetServer, parse_address

        net = NetServer(server, *parse_address(args.listen),
                        node_id=args.node_id or None)
        try:
            _serve_until_stopped(lambda: (
                net.start(), "listening on {bound} (ctrl-C to stop)"), args)
        finally:
            net.stop()
        _export(args.export, server.registry)
        return 0
    rng = np.random.default_rng(streams(args.seed).cli)
    pool = np.atleast_2d(server.prototype.app.test_inputs(rng))
    # A hard wall-clock bound per request: under --selftest a handle that
    # neither completes nor fails within it counts as a hang, which is
    # exactly the bug class the chaos harness exists to find.
    session = _Session(timeout_s=args.deadline_s + 30.0)
    mask = _cpu_mask()
    with server:
        interval = 1.0 / args.rate if args.rate > 0 else 0.0
        for i in range(args.requests):
            lo = (i * args.elements) % max(pool.shape[0] - args.elements, 1)
            session.submit(lambda: server.submit(pool[lo: lo + args.elements]))
            if interval:
                time.sleep(interval)
        session.drain()
        for exc in session.hung:
            print(f"HUNG request: {exc}")
        stats = server.stats()
    completed, hung = len(session.results), len(session.hung)
    failed = session.failed - hung  # a hang is its own selftest column
    rows = [
        ["requests completed", completed],
        ["requests failed", failed],
        ["requests shed", session.refused],
        *session.timing_rows(),
        ["degradation events",
         server.controller.degrade_events if server.controller else 0],
        ["worker restarts", stats["worker_restarts"]],
        ["batch retries", stats["retries"]],
        ["cpu hold", stats["cpu_hold"]],
    ]
    if stats.get("chaos"):
        rows.extend([
            ["chaos kills", stats["chaos"]["kills"]],
            ["chaos injected faults", stats["chaos"]["injected_faults"]],
        ])
    tracing = stats.get("tracing") or {}
    if tracing.get("enabled"):
        rows.append(["requests traced", tracing["traced_requests"]])
        if tracing.get("flight_log"):
            rows.append(["flight records", tracing["flight_records"]])
    routed: dict = {}  # ensemble member -> rows, over every worker
    for snap in (w["ensemble"] for w in stats["workers"] if w.get("ensemble")):
        for member, n in zip(snap["members"], snap["routed"]):
            routed[member] = routed.get(member, 0) + int(n)
    if routed:
        rows.append(["ensemble members", ", ".join(
            f"{m}={v}" for m, v in routed.items())])
    print(format_table(["quantity", "value"], rows, title="Serving session"))
    print(format_table(
        ["worker", "batches", "elements", "threshold", "restarts"],
        [[w["worker"], w["batches"], w["elements"], f"{w['threshold']:.4g}",
          w.get("restarts", 0)] for w in stats["workers"]],
    ))
    _export(args.export, server.registry)
    if args.flight_log:
        print(f"wrote {tracing.get('flight_records', 0)} flight records "
              f"to {args.flight_log} (browse: python -m repro trace "
              f"--log {args.flight_log})")
    journal = stats.get("journal")
    if journal:
        print(f"wrote {journal['records']} journal records to "
              f"{journal['path']} (re-run: python -m repro replay "
              f"{journal['path']})")
    if args.selftest:
        ok = session.selftest(
            completed=completed, failed=failed, shed=session.refused,
            also=hung == 0, suffix=f", {hung} hung",
        )
        if args.ensemble:
            # The ensemble acceptance check: routing actually spread rows
            # across members (the burst's degradation widens the budget).
            chosen = sum(1 for v in routed.values() if v > 0)
            ens_ok = chosen >= 2
            print(f"ensemble selftest: {chosen} members "
                  f"chosen -> {'OK' if ens_ok else 'FAIL'}")
            ok = ok and ens_ok
        if args.backend == "thread" and mask is not None and len(mask) > 1:
            # The thread backend holds one CPU while serving and gives
            # the starting thread its mask back at stop().
            restored = _cpu_mask() == mask
            hold_ok = stats["cpu_hold"] is not None and restored
            print(f"cpu hold selftest: CPU {stats['cpu_hold']} held while "
                  f"serving, mask {'restored' if restored else 'NOT restored'}"
                  f" after stop -> {'OK' if hold_ok else 'FAIL'}")
            ok = ok and hold_ok
        return 0 if ok else 1
    return 0


def _cpu_mask():
    """The calling thread's CPU mask (None where the OS has none)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return getaffinity(0) if getaffinity is not None else None


@_command(
    "cluster", "route traffic across a fleet of serving nodes",
    *_app_scheme(app_default=_SERVER.app),
    _arg("--nodes", type=int, default=2,
         help="spawn this many local node processes (ignored with "
              "--attach)"),
    _arg("--attach", default="",
         help="comma-separated HOST:PORT list of already-running nodes to "
              "route across instead of spawning a local fleet"),
    _arg("--workers-per-node", type=int, default=1,
         help="worker threads inside each spawned node"),
    _arg("--listen", default="127.0.0.1:0",
         help="client-facing address (port 0 = ephemeral)"),
    _arg("--port-file", default="",
         help="write the bound router host:port here"),
    _arg("--duration", type=float, default=0.0,
         help="serve for this many seconds then exit (0 = until "
              "interrupted)"),
    _leaf("--probe-interval", _CLUSTER.probe_interval_s,
          help="seconds between node health probes"),
)
def _cmd_cluster(args: argparse.Namespace) -> int:
    import contextlib

    from repro.serving import serve_cluster, spawn_local_fleet

    attached = [a.strip() for a in args.attach.split(",") if a.strip()]
    if args.attach and not attached:
        print("--attach needs at least one HOST:PORT")
        return 2

    def start():
        addresses = attached
        if not args.attach:
            print(f"spawning {args.nodes} {args.app} node(s) — each child "
                  "trains its own predictor stack first...", flush=True)
            fleet = spawn_local_fleet(
                args.nodes, app=args.app, scheme=args.scheme,
                workers=args.workers_per_node,
            )
            cleanup.callback(fleet.stop)
            addresses = fleet.addresses
            print("nodes: " + ", ".join(addresses), flush=True)
        router = serve_cluster(
            addresses,
            config=ClusterConfig(probe_interval_s=args.probe_interval),
            listen=args.listen, wait_for=len(addresses), timeout=120.0,
        )
        cleanup.callback(router.stop)
        return router, (f"routing across {len(addresses)} "
                        "node(s) on {bound} (ctrl-C to stop)")

    with contextlib.ExitStack() as cleanup:  # router first, then its fleet
        _serve_until_stopped(start, args)
    return 0


@_command(
    "client", "drive a remotely served Rumba over TCP",
    _arg("--connect", required=True, help="server address, HOST:PORT"),
    _arg("--requests", type=int, default=100),
    _arg("--elements", type=_int_at_least(1), default=256,
         help="kernel iterations per request"),
    _arg("--depth", type=int, default=8,
         help="in-flight requests kept multiplexed on the one connection"),
    _leaf("--deadline-s", _SERVER.retry.default_deadline_s,
          help="per-request deadline budget sent on the wire"),
    _arg("--timeout-s", type=float, default=60.0,
         help="client-side wait bound per request"),
    _arg("--overload-burst", type=int, default=0,
         help="midway through, submit this many extra back-to-back "
              "requests to force admission shedding (proves "
              "OverloadedError round-trips)"),
    _arg("--trace", action="store_true",
         help="force-sample a trace for every request and print the "
              "returned trace ids"),
    _arg("--stats", action="store_true",
         help="print the server's stats() document as JSON"),
    _arg("--selftest", action="store_true",
         help="verify completed+overloaded+failed accounts for every "
              "submission (exit 1 otherwise)"),
    _SEED,
)
def _cmd_client(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.serving import connect
    from repro.streams import streams

    with connect(args.connect, timeout_s=args.timeout_s) as client:
        print(f"connected: app={client.app} scheme={client.scheme} "
              f"features={client.features} protocol={client.protocol_version}")
        rng = np.random.default_rng(streams(args.seed).cli)
        session = _Session(timeout_s=args.timeout_s)
        for i in range(args.requests):
            # An optional burst of back-to-back submissions designed to
            # overflow a small admission queue and prove the typed
            # OverloadedError round-trips over the wire.
            burst = args.overload_burst if i == args.requests // 2 else 0
            for _ in range(max(burst, 1)):
                session.submit(lambda: client.submit(
                    rng.random((args.elements, max(client.features, 1))),
                    deadline_s=args.deadline_s,
                    trace=args.trace,
                ))
            session.drain(args.depth)
        session.drain()
        completed = len(session.results)
        trace_ids = [r.trace_id for r in session.results if r.trace_sampled]
        rows = [
            ["requests submitted", session.submitted],
            ["requests completed", completed],
            ["requests overloaded", session.refused],
            ["requests failed", session.failed],
            *session.timing_rows(),
        ]
        print(format_table(["quantity", "value"], rows,
                           title=f"Client session against {args.connect}"))
        if args.trace and trace_ids:
            shown = ", ".join(f"{t:#x}" for t in trace_ids[:8])
            more = len(trace_ids) - min(len(trace_ids), 8)
            print(f"sampled trace ids ({len(trace_ids)}): {shown}"
                  + (f" ... +{more} more" if more else ""))
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
    if args.selftest and not session.selftest(
        completed=completed, overloaded=session.refused,
        failed=session.failed,
        also=session.refused > 0 or args.overload_burst <= 0,
    ):
        return 1
    return 0


@_command(
    "replay", "re-run a captured request journal and diff outputs "
              "bit-for-bit",
    _arg("journal", help="journal file written by serve --journal"),
    _arg("--backend", default="", choices=("", *_BACKENDS),
         help="replay against this backend (default: the backend recorded "
              "in the journal)"),
    _arg("--out", default="",
         help="write the replay's own journal here and keep it (default: "
              "<journal>.replay, deleted after the diff)"),
    _arg("--json", action="store_true",
         help="print the divergence report as JSON"),
)
def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro.serving.replay import replay_journal

    report = replay_journal(args.journal, backend=args.backend or None,
                            journal_out=args.out or None)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok and report.compared else 1  # compared nothing: no pass


@_command(
    "trace", "browse a flight-recorder log",
    _arg("id", nargs="?", default="",
         help="request or trace id to show a waterfall for (decimal or "
              "0x-prefixed hex); omit for the aggregate view"),
    _arg("--log", required=True,
         help="flight log written by serve --flight-log or monitor --trace"),
    _arg("--tail", type=_int_at_least(0), default=10,
         help="one-line summaries of the last N records in the aggregate "
              "view (0 = none)"),
)
def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observability.flightlog import (
        aggregate_stages, format_record_line, format_waterfall,
        read_flight_log,
    )

    records = read_flight_log(args.log)
    if not records:
        print(f"no flight records in {args.log}")
        return 1
    if args.id:
        try:
            wanted = int(args.id, 0)  # decimal or 0x-prefixed hex
        except ValueError:
            print(f"not a request or trace id: {args.id!r}")
            return 2
        matches = [
            r for r in records
            if int(r.get("request_id", -1)) == wanted
            or int(r.get("trace_id", 0)) == wanted
        ]
        if not matches:
            print(f"no record matching id {wanted:#x} ({wanted}) "
                  f"in {args.log}")
            return 1
        print("\n\n".join(format_waterfall(record) for record in matches))
        return 0
    aggregate = aggregate_stages(records)
    rows = [
        [stage, int(d["count"]), f"{d['mean'] * 1e3:.3f}",
         f"{d['p50'] * 1e3:.3f}", f"{d['p95'] * 1e3:.3f}",
         f"{d['p99'] * 1e3:.3f}"]
        for stage, d in aggregate.items()
    ]
    print(format_table(
        ["stage", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms"], rows,
        title=f"{len(records)} flight records in {args.log}",
    ))
    tail = records[-args.tail:] if args.tail else []
    if tail:
        print(f"last {len(tail)} records:")
        for record in tail:
            print("  " + format_record_line(record))
    return 0


@_command(
    "report", "generate a markdown report",
    _arg("--apps", default="", help="comma-separated benchmark subset"),
    _arg("--out", default="", help="write to a file"),
    _SEED,
)
def _cmd_report(args: argparse.Namespace) -> int:
    from repro.apps import APPLICATION_NAMES
    from repro.eval.fidelity import collect, render

    apps = args.apps.split(",") if args.apps else APPLICATION_NAMES
    text = render([collect(apps, seed=args.seed)])
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rumba (ISCA'15) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, arguments, handler in _COMMANDS:
        command = sub.add_parser(name, help=help_line)
        for flags, kwargs in arguments:
            command.add_argument(*flags, **kwargs)
        command.set_defaults(handler=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigurationError, UnknownApplicationError) as exc:
        # A value the parser cannot check: one line and argparse's status.
        # (``exc.args[0]``: a KeyError's str() would quote the message.)
        print(f"repro: error: {exc.args[0] if exc.args else exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
