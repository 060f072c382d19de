"""The cluster chaos drill: SIGKILL a real node process mid-run.

This is the node-level mirror of ``tests/serving/test_faults.py``: the
fleet of spawned ``python -m repro serve --listen`` children presents
the same ``workers``/``alive()``/``process.pid`` surface as a
``ProcessWorkerPool``, so the *existing* :class:`ChaosMonkey` is reused
unchanged — ``attach_pool(fleet)`` + ``kill_one_worker()`` murders a
whole node.  The acceptance property is exactly-once completion:
every request accepted by the router resolves exactly one time, with
zero lost to the killed node and zero duplicated by the retry path.
"""

from __future__ import annotations

import pytest

from repro.errors import ServingError
from repro.serving import (
    ChaosConfig,
    ChaosMonkey,
    RumbaClient,
    serve_cluster,
    spawn_local_fleet,
)
from repro.serving.cluster import ClusterRouter  # noqa: F401 - re-export check
from repro.serving.config import ClusterConfig
from tests.serving.cluster.fleet import burst_nodes, stats_document

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def fleet():
    with spawn_local_fleet(2, app="fft", workers=1) as f:
        yield f


def test_sigkilled_node_requests_retried_on_survivor(
    fleet, fft_input_pool
):
    router = serve_cluster(
        fleet.addresses,
        config=ClusterConfig(
            probe_interval_s=0.1,
            failure_threshold=2,
            max_retries=2,
            backoff_initial_s=1.0,
        ),
        wait_for=2,
        timeout=60.0,
    )
    monkey = ChaosMonkey(ChaosConfig(kill_rate=0.0, seed=7))
    monkey.attach_pool(fleet)
    try:
        with RumbaClient(*router.address, timeout_s=60.0) as client:
            handles = [
                client.submit(fft_input_pool[:8], deadline_s=30.0)
                for _ in range(30)
            ]
            # Mid-run: SIGKILL one whole node, the ProcessWorkerPool way.
            assert monkey.kill_one_worker() is True
            results = [h.result(45.0) for h in handles]
        # Exactly once: all 30 accepted requests produced exactly one
        # completion each — none lost with the murdered node, none
        # duplicated by the redelivery.
        assert len(results) == 30
        assert monkey.kills == 1
        assert sum(h.alive() for h in fleet.workers) == 1
        survivor = next(h for h in fleet.workers if h.alive())
        assert all(
            r.worker.split("/", 1)[0] == survivor.address
            for r in results[-5:]
        )
        doc = stats_document(router)
        assert doc["router"]["requests_retried"] >= 1
        # The dead node leaves the routable set and gets no traffic.
        assert not router.wait_for_nodes(2, timeout=1.0)
        assert set(burst_nodes(router, fft_input_pool[:8], 6)) == {
            survivor.address
        }
    finally:
        router.stop()


def test_fleet_spawns_with_pinned_node_ids(fleet):
    # The chaos drill above may have murdered a node; use a survivor.
    alive = [h.address for h in fleet.workers if h.alive()]
    router = serve_cluster(
        alive[:1],
        config=ClusterConfig(probe_interval_s=0.2),
        wait_for=1,
        timeout=60.0,
    )
    try:
        node = next(iter(router.manager.nodes.values()))
        # spawn_local_fleet pins --node-id fleet-node-<i> through the CLI.
        assert node.node_id.startswith("fleet-node-")
    finally:
        router.stop()


def test_node_dead_before_binding_reports_its_stderr():
    # argparse rejects the app and exits 2 long before the bind; the
    # error must carry the child's own words, not just the exit code.
    with pytest.raises(ServingError, match="exited with 2") as caught:
        spawn_local_fleet(1, app="nosuchapp", start_timeout=30.0)
    assert "nosuchapp" in str(caught.value)
