"""Quality-managed inference serving on top of the Rumba runtime.

The ROADMAP's north star is a deployment that serves heavy request
traffic; the paper's runtime is the per-invocation loop.  This package is
the tier between the two:

* :class:`~repro.serving.batching.AdmissionQueue` — bounded request
  admission with deadline-based batch flushing,
* :class:`~repro.serving.server.RumbaServer` — a pool of worker threads,
  each owning a :class:`~repro.core.RumbaSystem` shard cloned from one
  prepared prototype and running each invocation whole (the paper's
  Fig. 8 producer/consumer overlap is priced per invocation by
  ``simulate_pipeline``, not enacted with a second thread),
* :class:`~repro.serving.backpressure.BackpressureController` — when the
  backlog (batches in flight plus those the waiting requests would form)
  exceeds its high watermark the detection threshold is raised (graceful
  quality degradation) and admission stays bounded, so backlogs cannot
  grow without bound,
* :class:`~repro.serving.procpool.ProcessWorkerPool` and
  :class:`~repro.serving.shm.ShmRing` — the ``backend="process"``
  engine: worker *processes* each owning a full system shard, fed
  through shared-memory rings that move batches as raw float64 blocks
  (pickle only at worker startup; see ``docs/performance.md``),
* :mod:`~repro.serving.faults` — the chaos harness
  (:class:`ChaosConfig` / :class:`ChaosMonkey`): kills workers, injects
  batch faults, and drops/delays/corrupts control frames so the
  supervisor's restart + deadline-budgeted retry machinery can be proven
  under sustained churn (``python -m repro serve --chaos ...``).

* :mod:`~repro.serving.net` — the network edge: an asyncio TCP
  front-end (:class:`~repro.serving.net.NetServer`) speaking a
  versioned, CRC-checked binary protocol (``docs/protocol.md``), plus
  a blocking client with request-id multiplexing.

* :mod:`~repro.serving.cluster` — the fleet tier: a
  :class:`~repro.serving.cluster.ClusterRouter` gateway that fronts N
  ``NetServer`` nodes behind one address, with least-loaded
  routing, health-checked eviction and backoff re-admission, drain
  for rolling restarts, deadline-budgeted cross-node retries, and
  fleet-wide aggregated stats (``docs/cluster.md``; ``python -m repro
  cluster``).

* :mod:`~repro.serving.journal` / :mod:`~repro.serving.replay` — the
  durable request journal (``docs/replay.md``): with
  ``ServerConfig(journal=JournalConfig(path=...))`` every completed
  request is appended as a CRC-framed record (inputs, outputs, decision
  bits, batch layout), and ``python -m repro replay <journal>`` re-runs
  a captured trace deterministically against either backend and diffs
  the results bit-for-bit.

Most callers need only the two facade functions::

    from repro import serving

    server = serving.serve("fft", config=serving.ServerConfig(n_workers=4))
    result = server.submit_wait(inputs, deadline_s=5.0)
    server.stop()

    net = serving.serve("fft", listen="127.0.0.1:0")   # network edge
    with serving.connect(net.address) as client:
        result = client.submit_wait(inputs, deadline_s=5.0)
    net.stop()

See ``docs/serving.md`` for the architecture and ``python -m repro
serve`` / ``python -m repro client`` for the command-line entry points.
"""

from typing import Optional

from repro.serving.backpressure import BackpressureController
from repro.serving.batching import AdmissionQueue, concat_inputs, split_outputs
from repro.serving.cluster import (
    ClusterRouter,
    NodeFleet,
    NodeManager,
    spawn_local_fleet,
)
from repro.serving.config import (
    BackpressureConfig,
    BatchingConfig,
    ClusterConfig,
    EnsembleConfig,
    JournalConfig,
    RetryConfig,
    ServerConfig,
    TracingConfig,
)
from repro.serving.faults import ChaosConfig, ChaosMonkey, InjectedFault
from repro.serving.journal import RequestJournal, iter_journal, read_journal
from repro.serving.net import NetServer, RumbaClient, parse_address
from repro.serving.procpool import ProcessWorker, ProcessWorkerPool
from repro.serving.replay import Divergence, ReplayReport, replay_journal
from repro.serving.request import ServeHandle, ServeRequest, ServeResult
from repro.serving.server import RumbaServer, WorkerShard
from repro.serving.shm import ShmFrame, ShmRing

__all__ = [
    "AdmissionQueue",
    "BackpressureConfig",
    "BackpressureController",
    "BatchingConfig",
    "ChaosConfig",
    "ChaosMonkey",
    "ClusterConfig",
    "EnsembleConfig",
    "ClusterRouter",
    "Divergence",
    "InjectedFault",
    "JournalConfig",
    "NetServer",
    "NodeFleet",
    "NodeManager",
    "ProcessWorker",
    "ProcessWorkerPool",
    "ReplayReport",
    "RequestJournal",
    "RetryConfig",
    "RumbaClient",
    "RumbaServer",
    "ServeHandle",
    "ServeRequest",
    "ServeResult",
    "ServerConfig",
    "ShmFrame",
    "ShmRing",
    "TracingConfig",
    "WorkerShard",
    "concat_inputs",
    "connect",
    "iter_journal",
    "parse_address",
    "read_journal",
    "replay_journal",
    "serve",
    "serve_cluster",
    "spawn_local_fleet",
    "split_outputs",
]


def serve(
    app: Optional[str] = None,
    scheme: Optional[str] = None,
    config: Optional[ServerConfig] = None,
    *,
    prototype=None,
    listen=None,
    registry=None,
):
    """Build and start a quality-managed server in one call.

    Without ``listen``, returns a started :class:`RumbaServer` — call
    ``submit_wait`` on it directly.  With ``listen`` (``"host:port"`` or
    a ``(host, port)`` tuple; port 0 binds an ephemeral port), the
    server is additionally fronted by a :class:`~repro.serving.net.NetServer`
    and that is returned instead; read the bound address from its
    ``address`` attribute and talk to it with :func:`connect`.

    ``app``/``scheme`` override the matching fields of ``config`` (a
    default :class:`ServerConfig` when omitted).  Stop whichever object
    is returned with ``.stop()`` — the net front-end stops the server it
    started.
    """
    server = RumbaServer(
        app=app,
        scheme=scheme,
        prototype=prototype,
        config=config,
        registry=registry,
    )
    if listen is None:
        server.start()
        return server
    host, port = parse_address(listen)
    return NetServer(server, host, port).start()


def serve_cluster(
    nodes,
    config: Optional[ClusterConfig] = None,
    *,
    listen=("127.0.0.1", 0),
    registry=None,
    wait_for: int = 1,
    timeout: float = 30.0,
) -> ClusterRouter:
    """Start a :class:`ClusterRouter` over existing node addresses.

    ``nodes`` is an iterable of ``"host:port"`` strings (or tuples) of
    already-listening ``NetServer`` nodes — e.g. from
    :func:`spawn_local_fleet`'s ``addresses``.  ``config`` supplies the
    full knob set; ``nodes`` overrides its matching field.
    Blocks until ``wait_for`` nodes are routable (raises otherwise),
    then returns the started router — talk to it with :func:`connect`.
    """
    from repro.errors import NoHealthyNodesError

    base = config or ClusterConfig()
    router = ClusterRouter(
        base.with_overrides(nodes=tuple(nodes)),
        host=parse_address(listen)[0],
        port=parse_address(listen)[1],
        registry=registry,
    ).start(timeout=timeout)
    if wait_for > 0 and not router.wait_for_nodes(wait_for, timeout=timeout):
        router.stop()
        raise NoHealthyNodesError(
            f"fewer than {wait_for} nodes became routable in {timeout:.0f}s"
        )
    return router


def connect(address, **kwargs) -> RumbaClient:
    """Open a :class:`~repro.serving.net.RumbaClient` to a served address.

    ``address`` is ``"host:port"`` or a ``(host, port)`` tuple — e.g. the
    ``address`` attribute of the :class:`NetServer` that :func:`serve`
    returned.  Extra keyword arguments go to the client constructor
    (``timeout_s``, ``max_frame_bytes``).
    """
    host, port = parse_address(address)
    return RumbaClient(host, port, **kwargs)
