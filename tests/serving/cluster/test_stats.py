"""The fleet stats document: how per-node health flags fold together."""

from __future__ import annotations

from repro.serving.cluster.nodes import Node
from repro.serving.cluster.stats import aggregate_fleet_stats


def _node(port: int, stats: dict) -> Node:
    node = Node(f"127.0.0.1:{port}")
    node.stats = stats
    return node


class TestFleetHealth:
    def test_one_unhealthy_node_makes_the_fleet_unhealthy(self):
        doc = aggregate_fleet_stats([
            _node(1, {"healthy": True, "degraded": False}),
            _node(2, {"healthy": False, "degraded": True}),
        ], router={})
        assert doc["aggregate"]["healthy"] is False
        assert doc["aggregate"]["degraded"] is True

    def test_every_node_healthy_makes_the_fleet_healthy(self):
        doc = aggregate_fleet_stats([
            _node(1, {"healthy": True, "degraded": False}),
            _node(2, {"healthy": True, "degraded": False}),
        ], router={})
        assert doc["aggregate"]["healthy"] is True
        assert doc["aggregate"]["degraded"] is False

    def test_a_node_without_stats_is_not_counted(self):
        doc = aggregate_fleet_stats([
            _node(1, {"healthy": True}), _node(2, {}),
        ], router={})
        assert doc["nodes_reporting"] == 1
        assert doc["aggregate"]["healthy"] is True
