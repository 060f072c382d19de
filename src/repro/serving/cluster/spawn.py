"""Spawn a local fleet of ``NetServer`` node processes.

Each node is one ``python -m repro serve --listen 127.0.0.1:0`` child:
its own interpreter (GIL-free of its siblings), its own worker pool,
its own ephemeral port recorded through ``--port-file``.  The
:class:`NodeFleet` holds the handles and — deliberately — walks and
quacks like a :class:`~repro.serving.procpool.ProcessWorkerPool`: it
has a ``workers`` list of handles with ``alive()`` and ``process.pid``
and a settable ``chaos`` attribute, so the existing
:class:`~repro.serving.faults.ChaosMonkey` can be pointed at a fleet
(``monkey.attach_pool(fleet)``) and ``kill_one_worker()`` then SIGKILLs
a whole *node*.  That is exactly how the cluster chaos drill (tests and
the CI smoke) murders fleet members mid-run.

Used by ``python -m repro cluster --nodes N`` (spawn mode), the layer
ladder's network workloads, and the subprocess-level tests.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import List, Optional, Sequence

from repro.errors import ServingError
from repro.serving.cpuhold import unheld

__all__ = ["NodeHandle", "NodeFleet", "spawn_local_fleet"]

_PORT_POLL_S = 0.005


class NodeHandle:
    """One spawned node process (ChaosMonkey-compatible worker shape)."""

    def __init__(self, index: int, process: subprocess.Popen,
                 port_file: str, log_file: Optional[str] = None):
        self.index = index
        self.process = process
        self.port_file = port_file
        self.log_file = log_file  # the child's stderr, when it was kept
        self.address: Optional[str] = None  # "host:port" once bound

    @property
    def name(self) -> str:
        return self.address or f"node-{self.index}"

    def alive(self) -> bool:
        return self.process.poll() is None

    def wait_for_address(self, timeout: float = 60.0) -> str:
        """Block until the node wrote its bound ``host:port`` line.

        Only a line ending in the newline the writer always appends is
        taken: a read that lands between the truncating open and the
        write would otherwise return a cut-off address.
        """
        if self.address:
            return self.address
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.alive():
                raise ServingError(
                    f"node {self.index} exited with "
                    f"{self.process.returncode} before binding"
                    + self._stderr_tail()
                )
            try:
                with open(self.port_file) as handle:
                    text = handle.read()
            except OSError:
                text = ""
            if text.endswith("\n") and text.strip():
                self.address = text.strip()
                return self.address
            time.sleep(_PORT_POLL_S)
        raise ServingError(
            f"node {self.index} did not bind within {timeout:.0f}s"
        )

    def _stderr_tail(self) -> str:
        if self.log_file is None:
            return ""
        with open(self.log_file, errors="replace") as handle:
            tail = "".join(handle.readlines()[-5:]).strip()
        return f"; its stderr ends:\n{tail}" if tail else ""


class NodeFleet:
    """A set of spawned node processes behind one lifecycle.

    ``workers`` / per-handle ``alive()`` / ``process.pid`` / settable
    ``chaos`` mirror the process pool's surface so ChaosMonkey's
    node-kill path needs no cluster-specific code.
    """

    def __init__(self, handles: List[NodeHandle], workdir):
        self.workers = handles
        self.chaos = None  # set by ChaosMonkey.attach_pool
        self._workdir = workdir

    @property
    def addresses(self) -> List[str]:
        return [h.wait_for_address() for h in self.workers]

    def alive_count(self) -> int:
        return sum(1 for h in self.workers if h.alive())

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM every node; escalate to SIGKILL past ``timeout``."""
        for handle in self.workers:
            if handle.alive():
                try:
                    handle.process.send_signal(signal.SIGTERM)
                except (ProcessLookupError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for handle in self.workers:
            budget = max(deadline - time.monotonic(), 0.1)
            try:
                handle.process.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait(timeout=10.0)
        if self._workdir is not None:
            self._workdir.cleanup()
            self._workdir = None

    def __enter__(self) -> "NodeFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def spawn_local_fleet(
    n: int,
    app: str = "fft",
    scheme: str = "treeErrors",
    workers: int = 1,
    backend: str = "thread",
    extra_args: Sequence[str] = (),
    start_timeout: float = 120.0,
) -> NodeFleet:
    """Spawn ``n`` serving nodes on ephemeral ports and await their binds.

    Each child trains its own predictor stack (the ``serve`` command's
    prepare step), so first bind can take tens of seconds per app — the
    children prepare concurrently, and ``start_timeout`` covers the
    slowest.  The fleet's temp directory (port files, each child's
    stderr as ``node<i>.log``) lives until :meth:`NodeFleet.stop`.
    """
    if n < 1:
        raise ServingError("a fleet needs at least one node")
    workdir = tempfile.TemporaryDirectory(prefix="rumba-fleet-")
    env = dict(os.environ)
    handles: List[NodeHandle] = []
    fleet = NodeFleet(handles, workdir)
    try:
        for index in range(n):
            port_file = os.path.join(workdir.name, f"node{index}.port")
            cmd = [
                sys.executable, "-m", "repro", "serve",
                "--app", app, "--scheme", scheme,
                "--workers", str(workers), "--backend", backend,
                "--listen", "127.0.0.1:0", "--port-file", port_file,
                "--node-id", f"fleet-node-{index}",
                *extra_args,
            ]
            log_file = os.path.join(workdir.name, f"node{index}.log")
            # A node must not inherit a thread server's CPU hold.
            with open(log_file, "wb") as log, unheld():
                process = subprocess.Popen(
                    cmd, env=env, stdout=subprocess.DEVNULL, stderr=log,
                )
            handles.append(NodeHandle(index, process, port_file, log_file))
        deadline = time.monotonic() + start_timeout
        for handle in handles:
            handle.wait_for_address(
                timeout=max(deadline - time.monotonic(), 1.0)
            )
    except BaseException:
        fleet.stop()
        raise
    return fleet
