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

from repro._lazy import lazy_exports

_EXPORTS = {
    "ClusterRouter": "router",
    "Node": "nodes", "NodeLink": "nodes", "NodeManager": "nodes",
    "NodeFleet": "spawn", "NodeHandle": "spawn", "spawn_local_fleet": "spawn",
    "aggregate_fleet_stats": "stats", "merge_stats": "stats",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
