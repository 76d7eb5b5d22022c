"""Adapter between nemeses and the system under test.

A nemesis needs very little from a system: the shared network (for
partitions, slowdowns, loss, duplication) and a way to enumerate, crash,
and restart its processes.  :class:`FaultTarget` packages exactly that,
with constructors for the three deployment shapes in this repo — a bare
Paxos cluster, a Scatter deployment, and the Chord baseline — so every
fault schedule is writable once and runnable against any of them.
"""

from __future__ import annotations

from typing import Mapping

from repro.net.node import Node
from repro.sim.network import SimNetwork


class FaultTarget:
    """A set of crashable processes sharing one :class:`SimNetwork`.

    ``nodes`` is kept by reference, so a live system that adds or removes
    nodes (churn) is reflected in later ``node_ids()`` calls — nemeses
    always draw victims from the current population.
    """

    def __init__(self, net: SimNetwork, nodes: Mapping[str, Node]) -> None:
        self.net = net
        self.nodes = nodes
        self._lost: set[str] = set()

    @staticmethod
    def for_system(system) -> "FaultTarget":
        """Wrap a ScatterSystem or ChordSystem (anything with .net/.nodes)."""
        return FaultTarget(system.net, system.nodes)

    @staticmethod
    def for_hosts(net: SimNetwork, hosts: list[Node]) -> "FaultTarget":
        """Wrap an explicit host list (e.g. ``build_cluster`` output)."""
        return FaultTarget(net, {h.node_id: h for h in hosts})

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def node_ids(self) -> list[str]:
        return sorted(self.nodes)

    def alive_ids(self) -> list[str]:
        return sorted(n for n, node in self.nodes.items() if node.alive)

    def down_ids(self) -> list[str]:
        return sorted(n for n, node in self.nodes.items() if not node.alive)

    # ------------------------------------------------------------------
    # Process faults
    # ------------------------------------------------------------------
    def crash(self, node_id: str) -> bool:
        """Transient fail-stop.  Returns True if the node was up."""
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return False
        node.crash()
        return True

    def restart(self, node_id: str) -> bool:
        """Recover a crashed node.  Returns True if it was down.

        Permanently lost nodes (see :meth:`node_loss`) never restart:
        heal-all sweeps and nemesis restore paths skip them.
        """
        node = self.nodes.get(node_id)
        if node is None or node.alive or node_id in self._lost:
            return False
        node.restart()
        return True

    def node_loss(self, node_id: str) -> bool:
        """Permanent failure: crash, wipe the disk, drop from the restart
        schedule.  Returns True if the node was up."""
        node = self.nodes.get(node_id)
        if node is None or not node.alive or node_id in self._lost:
            return False
        node.crash()
        disk = getattr(node, "disk", None)
        if disk is not None:
            disk.wipe()
        self._lost.add(node_id)
        return True

    def lost_ids(self) -> list[str]:
        """Nodes permanently removed via :meth:`node_loss`."""
        return sorted(self._lost)

    # ------------------------------------------------------------------
    # Disk faults (no-ops on deployments without the storage model)
    # ------------------------------------------------------------------
    def disk(self, node_id: str):
        """The node's simulated disk, or None (no node / no storage model)."""
        node = self.nodes.get(node_id)
        return getattr(node, "disk", None)

    def set_disk_io_error(self, node_id: str, failing: bool) -> bool:
        """Toggle the IO-error flag: appends/fsyncs/snapshots fail silently."""
        disk = self.disk(node_id)
        if disk is None:
            return False
        disk.io_error = failing
        return True

    def set_fsync_factor(self, node_id: str, factor: float) -> bool:
        """Scale fsync latency (slow/degraded disk; 1.0 = healthy)."""
        disk = self.disk(node_id)
        if disk is None:
            return False
        disk.fsync_factor = factor
        return True

    def lose_disk(self, node_id: str) -> bool:
        """Wipe the node's disk; its replicas will rejoin amnesiac."""
        disk = self.disk(node_id)
        if disk is None:
            return False
        disk.wipe()
        return True

    def corrupt_wal_tail(self, node_id: str, count: int) -> bool:
        """Checksum-corrupt the last ``count`` durable WAL records."""
        disk = self.disk(node_id)
        if disk is None:
            return False
        disk.corrupt_tail(count)
        return True

    def clear_disk_faults(self) -> None:
        """Reset IO-error and fsync-speed flags on every disk (heal)."""
        for node_id in self.nodes:
            disk = self.disk(node_id)
            if disk is not None:
                disk.clear_faults()
