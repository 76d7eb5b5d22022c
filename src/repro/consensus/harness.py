"""Single-replica-per-node harness for running Paxos outside Scatter.

Scatter hosts several replicas per physical node during reconfigurations;
this harness is the simple case — one replica per node — used by the
consensus test-suite, the lease ablation benchmark (E11), and as a
reference for how to adapt :class:`PaxosReplica` to a host.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.consensus.commands import Command
from repro.consensus.messages import (
    Accept,
    Accepted,
    AcceptNack,
    CatchupReply,
    CatchupRequest,
    Heartbeat,
    HeartbeatAck,
    InstallSnapshot,
    NotMember,
    Prepare,
    PrepareNack,
    Promise,
    TransferLease,
)
from repro.consensus.replica import PaxosConfig, PaxosReplica
from repro.net.futures import Future
from repro.net.node import Node
from repro.sim.events import EventHandle
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.storage.disk import NodeDisk, StorageConfig

PAXOS_MESSAGE_TYPES = (
    Prepare,
    Promise,
    PrepareNack,
    Accept,
    Accepted,
    AcceptNack,
    Heartbeat,
    HeartbeatAck,
    NotMember,
    TransferLease,
    CatchupRequest,
    CatchupReply,
    InstallSnapshot,
)


class NodeTransport:
    """Adapt a :class:`Node` to the replica's Transport protocol."""

    def __init__(self, node: Node, wrap: Callable[[Any], Any] | None = None) -> None:
        self._node = node
        self._wrap = wrap or (lambda msg: msg)

    @property
    def now(self) -> float:
        return self._node.sim.now

    @property
    def tracer(self) -> Any:
        return self._node.sim.tracer

    def send(self, dst: str, msg: Any) -> None:
        self._node.send(dst, self._wrap(msg))

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        return self._node.set_timer(delay, fn, *args)

    def rng(self) -> random.Random:
        return self._node.sim.rng(f"paxos:{self._node.node_id}")


class PaxosHost(Node):
    """A node whose entire job is to run one Paxos replica.

    Applied commands are recorded in ``self.applied`` (a list of
    (slot, command) pairs) and optionally forwarded to ``apply_fn``.
    With ``storage`` set the host gets a simulated disk and the replica
    persists through it (WAL + snapshots, real recovery on restart).
    """

    def __init__(
        self,
        node_id: str,
        sim: Simulator,
        net: SimNetwork,
        members: list[str],
        config: PaxosConfig | None = None,
        initial_leader: str | None = None,
        apply_fn: Callable[[int, Command], Any] | None = None,
        storage: StorageConfig | None = None,
    ) -> None:
        super().__init__(node_id, sim, net)
        self.applied: list[tuple[int, Command]] = []
        self._apply_fn = apply_fn
        if storage is not None:
            self.disk = NodeDisk(node_id, storage, tracer=sim.tracer, set_timer=self.set_timer)
        self.replica = PaxosReplica(
            replica_id=node_id,
            members=members,
            transport=NodeTransport(self),
            apply_fn=self._apply,
            config=config,
            initial_leader=initial_leader,
            snapshot_fn=self._snapshot,
            restore_fn=self._restore,
            storage=self.disk.storage_for("paxos") if self.disk is not None else None,
            reset_fn=self._reset,
        )

    def _snapshot(self) -> list[tuple[int, Command]]:
        return list(self.applied)

    def _restore(self, state: list[tuple[int, Command]]) -> None:
        self.applied = list(state)

    def _reset(self) -> None:
        self.applied = []

    def _route(self, src: str, msg: Any) -> None:
        self.replica.on_message(src, msg)

    def _apply(self, slot: int, command: Command) -> Any:
        self.applied.append((slot, command))
        if self._apply_fn is not None:
            return self._apply_fn(slot, command)
        return command.payload

    def on_restart(self) -> None:
        self.replica.on_host_restart()

    def propose(self, command: Command) -> Future:
        return self.replica.propose(command)

    _HANDLERS = dict.fromkeys(PAXOS_MESSAGE_TYPES, _route)


def build_cluster(
    sim: Simulator,
    net: SimNetwork,
    n: int = 3,
    config: PaxosConfig | None = None,
    apply_fn: Callable[[int, Command], Any] | None = None,
    storage: StorageConfig | None = None,
) -> list[PaxosHost]:
    """Build an n-node cluster with node 0 as the initial leader."""
    names = [f"n{i}" for i in range(n)]
    return [
        PaxosHost(
            name,
            sim,
            net,
            members=list(names),
            config=config,
            initial_leader=names[0],
            apply_fn=apply_fn,
            storage=storage,
        )
        for name in names
    ]


def current_leader(hosts: list[PaxosHost]) -> PaxosHost | None:
    """The unique live host whose replica believes it leads, if any."""
    leaders = [h for h in hosts if h.alive and h.replica.is_leader and not h.replica.retired]
    if len(leaders) == 1:
        return leaders[0]
    return None


def record_sends(hosts: list[PaxosHost]) -> list[tuple[str, str, str]]:
    """Record ``(src, dst, message type name)`` of every consensus send
    from now on, in the returned list (the count-based tests and the
    ``accept_msgs_per_slot`` perf row share it)."""
    sent: list[tuple[str, str, str]] = []
    for host in hosts:
        transport = host.replica.transport

        def recording(
            dst: str, msg: Any, _src: str = host.node_id, _send: Any = transport.send
        ) -> None:
            sent.append((_src, dst, type(msg).__name__))
            _send(dst, msg)

        transport.send = recording  # type: ignore[method-assign]
    return sent
