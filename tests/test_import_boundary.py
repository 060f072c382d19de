"""Each process imports only what it runs.

A cluster router relays bodies it never decodes, so its import path
holds no numpy and none of the Rumba stack; a serving node loads the
core and the net edge, not the evaluation, dashboard, cluster or replay
modules.  Every check starts a fresh interpreter, in the inherited
environment, and reads ``sys.modules`` once the work is done.  The
packages that re-export lazily (``repro._lazy``) must still hand out,
under every public name they had, the object its defining module holds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Loaded by none of the router's paths.
ROUTER_FORBIDDEN = ("numpy", "repro.core", "repro.apps", "repro.predictors",
                    "repro.eval")
#: Loaded by no ``serve`` node.
NODE_FORBIDDEN = ("repro.eval", "repro.observability.dashboard",
                  "repro.serving.cluster", "repro.serving.replay")

_RUN_CLI = """
import json, runpy, sys
sys.argv = ["repro", *json.loads(sys.argv[1])]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
"""
_REPORT = "\nprint(json.dumps(sorted(sys.modules)))\n"


def _run(code: str, *args: str):
    """Run ``code`` in a fresh interpreter; the JSON line it printed last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _modules_after(code: str, *args: str) -> set:
    return set(_run(code + _REPORT, *args))


def _loaded(modules: set, forbidden) -> list:
    return sorted(m for m in modules
                  if any(m == f or m.startswith(f + ".") for f in forbidden))


def test_router_module_loads_no_numpy_and_no_core():
    modules = _modules_after("import repro.serving.cluster.router")
    assert "repro.serving.cluster.router" in modules
    assert _loaded(modules, ROUTER_FORBIDDEN) == []


def test_cluster_cli_loads_no_numpy_and_no_core():
    modules = _modules_after(_RUN_CLI, json.dumps(["cluster", "--help"]))
    assert "repro.tables" in modules  # the CLI ran (as ``__main__``)
    assert _loaded(modules, ROUTER_FORBIDDEN) == []


def test_serve_node_loads_no_eval_dashboard_cluster_or_replay(tmp_path):
    argv = ["serve", "--app", "fft", "--workers", "1",
            "--listen", "127.0.0.1:0", "--duration", "0.01",
            "--port-file", str(tmp_path / "node.port")]
    modules = _modules_after(_RUN_CLI, json.dumps(argv))
    assert (tmp_path / "node.port").read_text().endswith("\n")
    assert {"repro.core.runtime", "repro.serving.server",
            "repro.serving.net.server"} <= modules
    assert _loaded(modules, NODE_FORBIDDEN) == []


def test_apps_mosaic_imports_first():
    """``apps.mosaic`` imports the approximation package's perforation
    module: importing the app first (``examples/mosaic_quality.py`` does)
    loads both."""
    modules = _modules_after("import repro.apps.mosaic")
    assert {"repro.apps.mosaic", "repro.approx.loop_perforation"} <= modules


#: The public surface of the lazily re-exporting packages, as it was
#: when they still imported their subsystems eagerly: defining module
#: -> names.
SURFACE = {
    "repro": {
        "repro": "__version__",
        "repro.apps.base": "Application",
        "repro.apps.registry": "APPLICATION_NAMES get_application",
        "repro.core.config": "RumbaConfig TunerMode",
        "repro.core.runtime": "RumbaSystem",
        "repro.core.offline": "prepare_system",
        "repro.observability.instrument": "Telemetry",
        "repro.observability.metrics": "MetricsRegistry",
        "repro.errors": "ReproError ConfigurationError TrainingError "
                        "NotFittedError PurityError UnknownApplicationError",
    },
    "repro.approx": {
        "repro.approx.base": "CostProfile",
        "repro.approx.ensemble": "ApproximatorEnsemble EnsembleMember "
            "EnsembleSpec InvocationRouter build_ensemble",
        "repro.approx.loop_perforation": "perforated_mean perforation_mask",
        "repro.approx.memoization": "MemoizingBackend",
        "repro.approx.npu_backend": "NPUBackend train_npu_backend",
    },
    "repro.observability": {
        "repro.observability.metrics": "Counter Gauge Histogram "
            "MetricsRegistry get_default_registry",
        "repro.observability.instrument": "Telemetry",
        "repro.observability.export": "prometheus_text json_snapshot "
                                      "write_snapshot",
        "repro.observability.dashboard": "render_dashboard",
        "repro.observability.reqtrace": "RequestTrace TracingPolicy STAGES "
                                        "new_trace_id",
        "repro.observability.flightlog": "FlightRecorder read_flight_log "
            "iter_flight_records aggregate_stages format_record_line "
            "format_waterfall",
    },
    "repro.serving": {
        "repro.serving.backpressure": "BackpressureController",
        "repro.serving.batching": "AdmissionQueue concat_inputs "
                                  "split_outputs",
        "repro.serving.cluster.router": "ClusterRouter",
        "repro.serving.cluster.spawn": "NodeFleet spawn_local_fleet",
        "repro.serving.cluster.nodes": "NodeManager",
        "repro.serving.config": "BackpressureConfig BatchingConfig "
            "ClusterConfig EnsembleConfig JournalConfig RetryConfig "
            "ServerConfig TracingConfig",
        "repro.serving.faults": "ChaosConfig ChaosMonkey InjectedFault",
        "repro.serving.journal": "RequestJournal iter_journal read_journal",
        "repro.serving.net.server": "NetServer",
        "repro.serving.net.client": "RumbaClient",
        "repro.serving.net.protocol": "parse_address",
        "repro.serving.procpool": "ProcessWorker ProcessWorkerPool",
        "repro.serving.replay": "Divergence ReplayReport replay_journal",
        "repro.serving.request": "ServeHandle ServeRequest ServeResult",
        "repro.serving.server": "RumbaServer WorkerShard",
        "repro.serving.shm": "ShmFrame ShmRing",
        "repro.serving": "connect serve serve_cluster",
    },
    "repro.serving.net": {
        "repro.serving.net.client": "NetHandle NetResult RumbaClient",
        "repro.serving.net.protocol": "PROTOCOL_VERSION ProtocolError "
                                      "parse_address",
        "repro.serving.net.server": "NetServer",
    },
    "repro.serving.cluster": {
        "repro.serving.cluster.router": "ClusterRouter",
        "repro.serving.cluster.nodes": "Node NodeLink NodeManager",
        "repro.serving.cluster.spawn": "NodeFleet NodeHandle "
                                       "spawn_local_fleet",
        "repro.serving.cluster.stats": "aggregate_fleet_stats merge_stats",
    },
}

_CHECK_SURFACE = """
import importlib
package, surface = sys.argv[1], json.loads(sys.argv[2])
pkg = importlib.import_module(package)
names = {n for owner in surface.values() for n in owner.split()}
missing = sorted(names - set(pkg.__all__))
wrong = [f"{package}.{name} is not {owner}.{name}"
         for owner, listed in surface.items() for name in listed.split()
         if getattr(pkg, name) is not getattr(importlib.import_module(owner), name)]
print(json.dumps(missing + wrong))
"""


@pytest.mark.parametrize("package", sorted(SURFACE))
def test_public_names_resolve_to_their_defining_objects(package):
    assert _run(_CHECK_SURFACE, package, json.dumps(SURFACE[package])) == []
