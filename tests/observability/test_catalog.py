"""The documented catalog is the exported one.

``docs/observability.md`` is where an operator looks a name up; a stage
or metric family the code exports and the catalog does not mention is a
name nobody can look up, and a documented name nothing exports is a
series nobody can find.  Everything is registered at construction, so
no thread, process or socket is started here.
"""

import os
import re

import pytest

from repro.observability import MetricsRegistry, Telemetry
from repro.observability.reqtrace import STAGES
from repro.serving import ClusterRouter, NetServer, RumbaServer

DOC_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "docs",
    "observability.md",
)


@pytest.fixture(scope="module")
def catalog():
    with open(DOC_PATH, encoding="utf-8") as handle:
        return handle.read()


def _telemetry_families():
    registry = MetricsRegistry()
    Telemetry(app="fft", scheme="treeErrors", registry=registry)
    return registry.names()


def _server_and_edge_families():
    server = RumbaServer()
    core = set(server.registry.names())
    NetServer(server)
    return core, set(server.registry.names()) - core


def test_every_stage_is_in_the_catalog(catalog):
    missing = [stage for stage in STAGES if f"| `{stage}` |" not in catalog]
    assert not missing, f"stages missing from the stage table: {missing}"


@pytest.fixture(scope="module")
def registered():
    core, edge = _server_and_edge_families()
    return {
        "Telemetry": _telemetry_families(),
        "RumbaServer": core,
        "NetServer": edge,
        "ClusterRouter": ClusterRouter().registry.names(),
    }


def test_every_metric_family_is_in_the_catalog(catalog, registered):
    for owner, names in registered.items():
        assert names, f"{owner} registered nothing"
        missing = sorted(n for n in names if f"`{n}`" not in catalog)
        assert not missing, f"{owner} exports undocumented families: {missing}"


def test_every_catalog_family_is_registered(catalog, registered):
    """The converse: a documented name nothing registers is a row an
    operator looks up and never finds.  A wildcard (`rumba_net_*`)
    names no single family and is skipped; a label selector
    (`rumba_stage_seconds{stage=...}`) names its family."""
    documented = set(re.findall(r"`(rumba_\w+)(?:\{[^`]*\})?`", catalog))
    exported = set().union(*registered.values())
    stale = sorted(documented - exported)
    assert not stale, f"the catalog documents unregistered families: {stale}"
