"""``NodeHandle.wait_for_address`` reads a port file only once it is whole."""

from types import SimpleNamespace

import pytest

from repro.errors import ServingError
from repro.serving.cluster.spawn import NodeHandle


def test_half_written_port_file_is_not_an_address(tmp_path):
    # ``serve --port-file`` truncates the file, then writes "host:port\n";
    # a poll between the two must not take the cut-off text.
    port_file = tmp_path / "node.port"
    port_file.write_text("127.0.0.1:4")
    handle = NodeHandle(0, SimpleNamespace(poll=lambda: None), str(port_file))
    with pytest.raises(ServingError, match="did not bind"):
        handle.wait_for_address(timeout=0.1)
    with open(port_file, "a") as writer:
        writer.write("321\n")
    assert handle.wait_for_address(timeout=5.0) == "127.0.0.1:4321"
