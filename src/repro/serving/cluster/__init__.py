"""The cluster tier: a fleet of serving nodes behind one gateway.

One :class:`ClusterRouter` listens on a single address and speaks the
``docs/protocol.md`` wire protocol to clients while forwarding each
request over one multiplexed connection per node to the least loaded
of N independent :class:`~repro.serving.net.server.NetServer` nodes, a
member list fixed at start.  The
:class:`~repro.serving.cluster.nodes.NodeManager` health-checks the
members (probe → evict → back off → re-admit), ``drain`` enables
rolling restarts, and a STATS round-trip to the router returns the
aggregated fleet document.  ``docs/cluster.md`` is the operator guide.

Quick start::

    from repro.serving import ClusterConfig, ClusterRouter, connect

    router = ClusterRouter(ClusterConfig(
        nodes=("127.0.0.1:9001", "127.0.0.1:9002"),
    )).start()
    router.wait_for_nodes(2)
    with connect(router.address) as client:
        handle = client.submit(inputs)

or on the command line: ``python -m repro cluster --app fft --nodes 2``.
"""

from repro.serving.cluster.nodes import Node, NodeLink, NodeManager
from repro.serving.cluster.router import ClusterRouter
from repro.serving.cluster.spawn import (
    NodeFleet,
    NodeHandle,
    spawn_local_fleet,
)
from repro.serving.cluster.stats import aggregate_fleet_stats, merge_stats

__all__ = [
    "ClusterRouter",
    "Node",
    "NodeLink",
    "NodeManager",
    "NodeFleet",
    "NodeHandle",
    "spawn_local_fleet",
    "aggregate_fleet_stats",
    "merge_stats",
]
