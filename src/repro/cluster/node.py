"""A cluster node: a kernel plus its housekeeping."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


class Node:
    """One machine in the cluster."""

    def __init__(self, index: int, name: str, kernel: "Kernel"):
        self.index = index
        self.name = name
        self.kernel = kernel
        #: background system daemons started on this node
        self.daemons: list["Task"] = []
        #: application (MPI) tasks placed on this node
        self.app_tasks: list["Task"] = []
        #: streaming KTAUD attached by a cluster monitor (None when
        #: this node is unmonitored); set by ClusterMonitor.attach_node
        self.ktaud = None
        #: fault injection: True while this node is crashed.  Set by the
        #: fault injector (which also reaps the node's processes); the
        #: wire fault hook drops frames addressed to a down node, and a
        #: reboot fault clears it and restarts the housekeeping daemons.
        self.down = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name} cpus={self.kernel.params.online_cpus}>"
