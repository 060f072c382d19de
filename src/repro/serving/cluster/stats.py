"""Fold per-node stats documents into one fleet-wide document.

Every node's ``RumbaServer.stats()`` document (cached by the health
probe, so aggregation never blocks on the network) is merged into a
single ``aggregate`` section: numeric counters sum, nested dicts —
including histogram bucket tables — merge recursively, and string
fields collapse to ``"mixed"`` when the fleet disagrees.  Alongside it
ride a per-node ``health`` section from the
:class:`~repro.serving.cluster.nodes.NodeManager` and the router's own
section (routed/retried counters), so one STATS round-trip to
the gateway answers "how is the tier doing" without fanning out.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["aggregate_fleet_stats", "merge_stats"]


def merge_stats(base: Optional[dict], extra: dict) -> dict:
    """Recursively fold ``extra`` into a copy of ``base``.

    Booleans OR (one degraded node means the fleet is degraded), other
    numbers sum (counters, depths, backlog sizes — histogram bucket
    tables merge through the dict branch), lists concatenate (worker
    tables, slow-request samples), and unequal strings become
    ``"mixed"`` so a heterogeneous fleet is visible rather than
    silently mislabelled.
    """
    if base is None:
        base = {}
    merged = dict(base)
    for key, value in extra.items():
        if key not in merged:
            merged[key] = value
            continue
        have = merged[key]
        if isinstance(have, dict) and isinstance(value, dict):
            merged[key] = merge_stats(have, value)
        elif isinstance(have, bool) and isinstance(value, bool):
            merged[key] = have or value
        elif isinstance(have, (int, float)) and isinstance(
            value, (int, float)
        ) and not isinstance(have, bool) and not isinstance(value, bool):
            merged[key] = have + value
        elif isinstance(have, list) and isinstance(value, list):
            merged[key] = have + value
        elif have != value:
            merged[key] = "mixed"
    return merged


def aggregate_fleet_stats(nodes: List, router: dict) -> dict:
    """The document a cluster router answers a STATS frame with.

    ``nodes`` are :class:`~repro.serving.cluster.nodes.Node` objects;
    their cached per-node stats (from the last successful health probe)
    feed the ``aggregate`` section, their supervision state feeds
    ``health``.  Evicted nodes have no cached stats and contribute only
    a health row.  The fleet is ``healthy`` only when every reporting
    node is: the OR that ``merge_stats`` applies suits ``degraded``, not
    this flag.
    """
    aggregate: dict = {}
    health: Dict[str, dict] = {}
    states: Dict[str, int] = {}
    reporting = 0
    for node in nodes:
        health[node.name] = node.health_document()
        states[node.state] = states.get(node.state, 0) + 1
        if node.stats:
            reporting += 1
            aggregate = merge_stats(aggregate, node.stats)
    if "healthy" in aggregate:
        aggregate["healthy"] = all(
            node.stats.get("healthy", True) for node in nodes if node.stats
        )
    return {
        "server": "rumba-cluster",
        "state": "running",
        "app": aggregate.get("app", ""),
        "scheme": aggregate.get("scheme", ""),
        "backend": "cluster",
        "nodes_total": len(nodes),
        "nodes_reporting": reporting,
        "node_states": states,
        "router": router,
        "health": health,
        "aggregate": aggregate,
    }
