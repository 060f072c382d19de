"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the Table 1 benchmark suite.
``run --app NAME [--scheme S] [--elements N] [--quality Q] [--telemetry F]``
    Train offline, run one invocation online, print the outcome.  With
    ``--telemetry`` the full metrics snapshot is dumped afterwards
    (``.json`` or Prometheus text, chosen by extension).
``monitor --app NAME [--invocations N] [--export F] [--trace F]``
    Run a quality-managed stream with full telemetry attached and render
    the live ASCII quality dashboard; optionally export the metrics
    snapshot and one flight record per invocation (``--trace F``, read
    back with ``trace --log F``).
``serve --app NAME [--workers N] [--backend thread|process] ...``
    Start the batched quality-managed serving layer (worker pool +
    backpressure; each worker runs an invocation whole), drive it with a
    synthetic request load, and print the throughput/latency/health
    report.  With ``--backend process`` each worker is an OS process fed over
    shared-memory rings (GIL-free scaling).  ``--chaos kill=2,...``
    injects faults (worker kills, batch faults) and
    ``--selftest`` verifies every request completed exactly once or
    failed fast — the fault-tolerance acceptance check — and, on a
    thread server with >= 2 CPUs, that it held one CPU while serving and
    gave the main thread its mask back at stop (``docs/serving.md``).
    ``--ensemble 'mlp:large,mlp:small,memo'`` serves a routed
    multi-approximator ensemble (``docs/ensemble.md``); ``--selftest``
    then additionally checks that routing spread rows across >= 2
    members.  The router is fit offline, so the spread comes from the
    load: a closed-loop burst degrades the server, and each degradation
    level doubles the routing budget.  Undegraded, fft at margin 0.1
    sends every row to ``mlp-large``.  With
    ``--listen HOST:PORT`` the server is instead exposed over TCP
    (``docs/protocol.md``) and runs until interrupted or ``--duration``
    elapses; ``--port-file`` records the bound ``host:port`` for
    scripting against an ephemeral port.
``cluster --app NAME [--nodes N | --attach H:P,H:P] ...``
    Stand up the cluster tier (``docs/cluster.md``): a routing gateway
    in front of N serving nodes — spawned locally as ``serve --listen``
    child processes, or attached to with ``--attach``.  The router
    health-checks the fleet (evicting dead nodes, re-admitting them
    with backoff), retries requests stranded by a node death on the
    survivors, and answers STATS with the aggregated fleet document;
    point ``python -m repro client`` at its address.
``client --connect HOST:PORT [--requests N] [--depth D] ...``
    Drive a remotely served Rumba over the wire protocol: multiplexed
    in-flight requests, per-request deadlines, and a ``--selftest``
    accounting check mirroring ``serve --selftest``.  ``--trace``
    force-samples every request and prints the trace ids the server
    echoed back, ready for ``python -m repro trace <id>``.
``replay JOURNAL [--backend thread|process] [--out FILE] [--json]``
    Deterministically re-run a request journal captured with
    ``serve --journal`` (``docs/replay.md``) against a fresh server,
    each batch at its recorded backpressure level, and diff outputs,
    decision bits, and quality metrics bit-for-bit.
    Exits non-zero on any divergence — the reproducibility check that
    turns a chaos-run journal into a regression test.
``trace --log FILE [ID] [--tail N]``
    Browse a flight-recorder log (``serve --flight-log`` or ``monitor
    --trace``).  With no ID:
    a per-stage p50/p95/p99 aggregate plus a one-line tail of the most
    recent records.  With an ID (decimal or ``0x...`` hex, matched
    against request *and* trace ids): the full per-stage waterfall for
    each matching record.
``summary [--apps a,b,...]``
    Recompute the paper's headline numbers (trains every requested
    benchmark; the full suite takes ~30 s).
``survey``
    Run the Sec. 2.2 purity survey over the kernel-pattern catalog.
``report [--apps a,b,...] [--out FILE]``
    Run the full evaluation and emit the paper-vs-measured document
    (``EXPERIMENTS.md`` for the whole suite at seed 0).
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from collections import deque
from typing import List, Optional

from repro.errors import OverloadedError, ServingError
from repro.tables import format_table

__all__ = ["main"]


# Each command imports what it runs, so a router (``cluster --attach``)
# never loads numpy or the core, and a node (``serve``) not the
# evaluation, dashboard or cluster modules.
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


def _cmd_run(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core import RumbaConfig, prepare_system
    from repro.observability import MetricsRegistry, Telemetry

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
    rng = np.random.default_rng(args.seed + 100)
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


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.apps.workloads import invocation_stream
    from repro.core import prepare_system
    from repro.core.stream import QualityManagedStream
    from repro.observability import FlightRecorder, MetricsRegistry, Telemetry
    from repro.observability.dashboard import (
        clear_screen_prefix, render_dashboard,
    )

    print(f"Preparing {args.app} with the {args.scheme} checker...")
    system = prepare_system(args.app, scheme=args.scheme, seed=args.seed)
    registry = MetricsRegistry()
    recorder = FlightRecorder(args.trace) if args.trace else None
    telemetry = Telemetry(app=args.app, scheme=args.scheme,
                          registry=registry, recorder=recorder)
    system.attach_telemetry(telemetry)
    stream = QualityManagedStream(system)
    chunks = invocation_stream(
        system.app, args.invocations, args.elements, seed=args.seed + 100
    )
    live = sys.stdout.isatty() and not args.no_live
    for chunk in chunks:
        stream.feed(chunk)
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


def _serve_config(args: argparse.Namespace):
    """Build the ServerConfig shared by the local and network modes."""
    from repro.serving import (
        BatchingConfig,
        ChaosConfig,
        EnsembleConfig,
        JournalConfig,
        RetryConfig,
        ServerConfig,
        TracingConfig,
    )

    chaos = ChaosConfig.parse(args.chaos) if args.chaos else None
    if args.ensemble:
        ensemble = EnsembleConfig(
            enabled=True,
            members=args.ensemble,
            margin=args.ensemble_margin,
        )
    else:
        ensemble = EnsembleConfig()
    tracing = TracingConfig(
        enabled=args.trace_sample > 0,
        sample_every=max(args.trace_sample, 1),
        flight_log_path=args.flight_log or None,
    )
    journal = JournalConfig(
        path=args.journal or None,
        max_bytes=args.journal_max_bytes,
    )
    return ServerConfig(
        app=args.app,
        scheme=args.scheme,
        n_workers=args.workers,
        backend=args.backend,
        seed=args.seed,
        batching=BatchingConfig(
            max_batch_requests=args.batch_requests,
            flush_interval_s=args.flush_ms / 1000.0,
            admission_capacity=args.admission_capacity,
        ),
        retry=RetryConfig(default_deadline_s=args.deadline_s),
        chaos=chaos,
        tracing=tracing,
        journal=journal,
        ensemble=ensemble,
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
    previous = signal.signal(
        signal.SIGTERM, lambda *_: interrupted.append(True)
    )
    try:
        listener, announce = start()
        bound = f"{listener.address[0]}:{listener.address[1]}"
        print(announce.format(bound=bound), flush=True)
        if args.port_file:
            with open(args.port_file, "w") as handle:
                handle.write(bound + "\n")
        deadline = (
            time.monotonic() + args.duration if args.duration > 0 else None
        )
        while listener.is_running and not interrupted:
            if deadline is not None and time.monotonic() >= deadline:
                break
            listener.serve_forever(timeout=0.2)
    except KeyboardInterrupt:
        interrupted.append(True)
    finally:
        if interrupted:
            print("interrupted; shutting down", flush=True)
        signal.signal(signal.SIGTERM, previous)


def _cmd_serve_listen(args: argparse.Namespace, server) -> int:
    """``serve --listen``: expose the server over TCP until stopped."""
    from repro.serving.net import NetServer, parse_address

    host, port = parse_address(args.listen)
    net = NetServer(server, host, port, node_id=args.node_id or None)
    try:
        _serve_until_stopped(
            lambda: (net.start(), "listening on {bound} (ctrl-C to stop)"),
            args,
        )
    finally:
        net.stop()
    _export(args.export, server.registry)
    return 0


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


def _cmd_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serving.server import RumbaServer

    config = _serve_config(args)
    chaos = config.chaos
    print(f"Preparing {args.app} with the {args.scheme} checker "
          f"({args.workers} {args.backend} workers"
          + (f", chaos {args.chaos!r}" if chaos and chaos.enabled else "")
          + ")...")
    server = RumbaServer(config=config)
    server.prepare()
    if args.listen:
        return _cmd_serve_listen(args, server)
    rng = np.random.default_rng(args.seed + 100)
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
        ["drift flagged", stats["drifted"]],
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
    ens_snaps = [
        w["ensemble"] for w in stats["workers"] if w.get("ensemble")
    ]
    ens_members_chosen = 0
    if ens_snaps:
        members = ens_snaps[0]["members"]
        routed_total = [
            sum(int(s["routed"][i]) for s in ens_snaps)
            for i in range(len(members))
        ]
        ens_members_chosen = sum(1 for v in routed_total if v > 0)
        rows.append(["ensemble members", ", ".join(
            f"{m}={v}" for m, v in zip(members, routed_total)
        )])
    print(format_table(["quantity", "value"], rows, title="Serving session"))
    worker_rows = [
        [w["worker"], w["batches"], w["elements"],
         f"{w['threshold']:.4g}", w["drifted"], w.get("restarts", 0)]
        for w in stats["workers"]
    ]
    print(format_table(
        ["worker", "batches", "elements", "threshold", "drifted", "restarts"],
        worker_rows,
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
            ens_ok = ens_members_chosen >= 2
            print(f"ensemble selftest: {ens_members_chosen} members "
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
        if not ok:
            return 1
    return 0


def _cpu_mask():
    """The calling thread's CPU mask (None where the OS has none)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return getaffinity(0) if getaffinity is not None else None


def _cmd_cluster(args: argparse.Namespace) -> int:
    import contextlib

    from repro.serving import ClusterConfig, serve_cluster, spawn_local_fleet

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


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.serving import connect

    with connect(args.connect, timeout_s=args.timeout_s) as client:
        print(f"connected: app={client.app} scheme={client.scheme} "
              f"features={client.features} protocol={client.protocol_version}")
        rng = np.random.default_rng(args.seed)
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


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro.serving.replay import replay_journal

    report = replay_journal(
        args.journal,
        backend=args.backend or None,
        journal_out=args.out or None,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok and report.compared else 1  # compared nothing: no pass


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observability.flightlog import (
        aggregate_stages,
        format_record_line,
        format_waterfall,
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
        for i, record in enumerate(matches):
            if i:
                print()
            print(format_waterfall(record))
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
    tail = records[-max(args.tail, 0):] if args.tail else []
    if tail:
        print(f"last {len(tail)} records:")
        for record in tail:
            print("  " + format_record_line(record))
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.apps import APPLICATION_NAMES
    from repro.eval.experiments import headline_summary

    apps = args.apps.split(",") if args.apps else list(APPLICATION_NAMES)
    print(f"Computing headline summary over {', '.join(apps)} ...")
    summary = headline_summary(benchmarks=apps, seed=args.seed)
    rows = [
        [name,
         f"{d['unchecked_error'] * 100:.1f}%",
         f"{d['rumba_error'] * 100:.1f}%",
         f"{d['npu_energy_savings']:.2f}x",
         f"{d['rumba_energy_savings']:.2f}x",
         f"{d['rumba_speedup']:.2f}x"]
        for name, d in summary.per_app.items()
    ]
    print(format_table(
        ["Benchmark", "unchecked err", "Rumba err", "NPU energy",
         "Rumba energy", "Rumba speedup"], rows,
    ))
    print(f"error reduction {summary.error_reduction:.2f}x; energy "
          f"{summary.npu_energy_savings:.2f}x -> "
          f"{summary.rumba_energy_savings:.2f}x; speedup "
          f"{summary.rumba_speedup:.2f}x")
    return 0


def _cmd_survey(_args: argparse.Namespace) -> int:
    from repro.core.purity_survey import survey_purity

    survey = survey_purity()
    print(format_table(
        ["Pattern", "Category", "Re-executable?"], survey.rows(),
        title="Data-parallel kernel purity survey (paper Sec. 2.2)",
    ))
    print(f"re-executable fraction: {survey.pure_fraction * 100:.0f}% "
          f"(paper's Rodinia analysis: >70%)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.fidelity import generate_report

    apps = args.apps.split(",") if args.apps else None
    kwargs = {"seed": args.seed}
    if apps:
        kwargs["benchmarks"] = apps
    text = generate_report(**kwargs)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


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


def _add_app_scheme(parser, app_default: Optional[str] = None) -> None:
    # No help= text: argparse would list the choices, importing them.
    parser.add_argument(
        "--app", default=app_default, required=app_default is None,
        metavar="APP",
        choices=_Names("repro.apps.registry", "APPLICATION_NAMES"),
    )
    parser.add_argument(
        "--scheme", default="treeErrors", metavar="SCHEME",
        choices=_Names("repro.predictors.training", "SCHEME_NAMES"),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rumba (ISCA'15) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the Table 1 benchmark suite")

    run = sub.add_parser("run", help="run one benchmark end to end")
    _add_app_scheme(run)
    run.add_argument("--elements", type=int, default=10000)
    run.add_argument("--quality", type=float, default=0.90,
                     help="target output quality (TOQ mode)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--telemetry", default="",
                     help="dump the metrics snapshot to this file "
                          "(.json or Prometheus text by extension)")

    monitor = sub.add_parser(
        "monitor", help="stream with live telemetry dashboard"
    )
    _add_app_scheme(monitor)
    monitor.add_argument("--invocations", type=int, default=20)
    monitor.add_argument("--elements", type=int, default=2000,
                         help="elements per invocation")
    monitor.add_argument("--export", default="",
                         help="write the final metrics snapshot here "
                              "(.prom/.txt Prometheus text, .json JSON)")
    monitor.add_argument("--trace", default="",
                         help="write one flight record (stage timeline) "
                              "per invocation here; browse with "
                              "`repro trace --log`")
    monitor.add_argument("--no-live", action="store_true",
                         help="render only the final dashboard frame")
    monitor.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="run the batched quality-managed serving layer"
    )
    _add_app_scheme(serve)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--backend", default="thread",
                       choices=("thread", "process"),
                       help="worker engine: in-process threads, or one OS "
                            "process per worker fed over shared memory")
    serve.add_argument("--requests", type=int, default=100,
                       help="synthetic requests to drive through the server")
    serve.add_argument("--elements", type=int, default=256,
                       help="kernel iterations per request")
    serve.add_argument("--batch-requests", type=int, default=8,
                       help="max requests batched into one invocation")
    serve.add_argument("--flush-ms", type=float, default=5.0,
                       help="longest a request waits for its batch to fill "
                            "while every worker is busy, in milliseconds "
                            "(an idle worker takes it at once)")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="request arrival rate in req/s (0 = closed loop)")
    serve.add_argument("--admission-capacity", type=int, default=256)
    serve.add_argument("--deadline-s", type=float, default=30.0,
                       help="per-request deadline budget in seconds "
                            "(dispatch + fault retries + recovery)")
    serve.add_argument("--chaos", default="",
                       help="fault-injection spec: worker kills per second, "
                            "per-batch fault probability and RNG seed, e.g. "
                            "'kill=2,fail=0.05,seed=1' (see docs/serving.md)")
    serve.add_argument("--selftest", action="store_true",
                       help="verify every request completed exactly once "
                            "or failed fast (exit 1 on any hang or drop)")
    serve.add_argument("--export", default="",
                       help="write the final metrics snapshot here "
                            "(.prom/.txt Prometheus text, .json JSON)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--listen", default="",
                       help="expose the server over TCP at HOST:PORT "
                            "(port 0 = ephemeral) instead of driving a "
                            "synthetic load; see docs/protocol.md")
    serve.add_argument("--port-file", default="",
                       help="with --listen: write the bound host:port here")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="with --listen: serve for this many seconds "
                            "then exit (0 = until interrupted)")
    serve.add_argument("--flight-log", default="",
                       help="record sampled request traces to this file "
                            "(browse with 'python -m repro trace')")
    serve.add_argument("--trace-sample", type=int, default=64,
                       help="trace every Nth request (0 disables tracing; "
                            "errors and retries are always sampled)")
    serve.add_argument("--node-id", default="",
                       help="with --listen: stable identity advertised in "
                            "the WELCOME document (default: fresh uuid per "
                            "process, so restarts are detectable)")
    serve.add_argument("--journal", default="",
                       help="record every request (inputs, outputs, "
                            "decision bits) to this durable journal for "
                            "deterministic replay; see docs/replay.md")
    serve.add_argument("--journal-max-bytes", type=int, default=64 << 20,
                       help="rotate the journal once it exceeds this size "
                            "(one rotated generation is kept)")
    serve.add_argument("--ensemble", default="",
                       help="serve a multi-approximator ensemble: comma-"
                            "separated, best-first member tokens, e.g. "
                            "'mlp:large,mlp:small,memo' (empty disables; "
                            "see docs/ensemble.md)")
    serve.add_argument("--ensemble-margin", type=float, default=1.0,
                       help="router budget as a multiple of the detection "
                            "threshold (lower = more rows on the "
                            "reference member)")

    replay = sub.add_parser(
        "replay", help="re-run a captured request journal and diff "
                       "outputs bit-for-bit"
    )
    replay.add_argument("journal",
                        help="journal file written by serve --journal")
    replay.add_argument("--backend", default="",
                        choices=("", "thread", "process"),
                        help="replay against this backend (default: the "
                             "backend recorded in the journal)")
    replay.add_argument("--out", default="",
                        help="write the replay's own journal here and keep "
                             "it (default: <journal>.replay, deleted after "
                             "the diff)")
    replay.add_argument("--json", action="store_true",
                        help="print the divergence report as JSON")

    cluster = sub.add_parser(
        "cluster", help="route traffic across a fleet of serving nodes"
    )
    _add_app_scheme(cluster, app_default="fft")
    cluster.add_argument("--nodes", type=int, default=2,
                         help="spawn this many local node processes "
                              "(ignored with --attach)")
    cluster.add_argument("--attach", default="",
                         help="comma-separated HOST:PORT list of already-"
                              "running nodes to route across instead of "
                              "spawning a local fleet")
    cluster.add_argument("--workers-per-node", type=int, default=1,
                         help="worker threads inside each spawned node")
    cluster.add_argument("--listen", default="127.0.0.1:0",
                         help="client-facing address (port 0 = ephemeral)")
    cluster.add_argument("--port-file", default="",
                         help="write the bound router host:port here")
    cluster.add_argument("--duration", type=float, default=0.0,
                         help="serve for this many seconds then exit "
                              "(0 = until interrupted)")
    cluster.add_argument("--probe-interval", type=float, default=1.0,
                         help="seconds between node health probes")

    client = sub.add_parser(
        "client", help="drive a remotely served Rumba over TCP"
    )
    client.add_argument("--connect", required=True,
                        help="server address, HOST:PORT")
    client.add_argument("--requests", type=int, default=100)
    client.add_argument("--elements", type=int, default=256,
                        help="kernel iterations per request")
    client.add_argument("--depth", type=int, default=8,
                        help="in-flight requests kept multiplexed on the "
                             "one connection")
    client.add_argument("--deadline-s", type=float, default=30.0,
                        help="per-request deadline budget sent on the wire")
    client.add_argument("--timeout-s", type=float, default=60.0,
                        help="client-side wait bound per request")
    client.add_argument("--overload-burst", type=int, default=0,
                        help="midway through, submit this many extra "
                             "back-to-back requests to force admission "
                             "shedding (proves OverloadedError round-trips)")
    client.add_argument("--trace", action="store_true",
                        help="force-sample a trace for every request and "
                             "print the returned trace ids")
    client.add_argument("--stats", action="store_true",
                        help="print the server's stats() document as JSON")
    client.add_argument("--selftest", action="store_true",
                        help="verify completed+overloaded+failed accounts "
                             "for every submission (exit 1 otherwise)")
    client.add_argument("--seed", type=int, default=0)

    trace = sub.add_parser(
        "trace", help="browse a flight-recorder log"
    )
    trace.add_argument("id", nargs="?", default="",
                       help="request or trace id to show a waterfall for "
                            "(decimal or 0x-prefixed hex); omit for the "
                            "aggregate view")
    trace.add_argument("--log", required=True,
                       help="flight log written by serve --flight-log or "
                            "monitor --trace")
    trace.add_argument("--tail", type=int, default=10,
                       help="one-line summaries of the last N records in "
                            "the aggregate view (0 = none)")

    summary = sub.add_parser("summary", help="recompute the headline numbers")
    summary.add_argument("--apps", default="",
                         help="comma-separated benchmark subset")
    summary.add_argument("--seed", type=int, default=0)

    sub.add_parser("survey", help="kernel purity survey (Sec. 2.2)")

    report = sub.add_parser("report", help="generate a markdown report")
    report.add_argument("--apps", default="",
                        help="comma-separated benchmark subset")
    report.add_argument("--out", default="", help="write to a file")
    report.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "monitor": _cmd_monitor,
        "serve": _cmd_serve,
        "cluster": _cmd_cluster,
        "client": _cmd_client,
        "replay": _cmd_replay,
        "trace": _cmd_trace,
        "summary": _cmd_summary,
        "survey": _cmd_survey,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
