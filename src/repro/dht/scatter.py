"""The Scatter node: hosts group replicas, routes, joins, self-maintains."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.consensus.commands import Command
from repro.consensus.replica import NotLeader, PaxosConfig, ProposalLost
from repro.dht.messages import (
    ClientOpReq,
    ClientOpResp,
    GossipReq,
    GossipResp,
    GroupJoinReq,
    GroupJoinResp,
    GroupLeaveReq,
    GroupMsg,
    GroupNeighborsReq,
    GroupNeighborsResp,
    JoinLookupReq,
    JoinLookupResp,
    TxnAbortReq,
    TxnCommitReq,
    TxnPrepareReq,
    TxnResp,
    TxnStatusReq,
    TxnStatusResp,
    WelcomeMsg,
)
from repro.dht.ring import ring_distance
from repro.dht.rpc import GroupUnreachable, group_request
from repro.group.commands import TxnAbortCmd, TxnCommitCmd
from repro.group.info import GroupGenesis, GroupInfo
from repro.group.replica import GroupReplica, GroupStatus
from repro.net.futures import Future, RpcError, RpcTimeout, spawn
from repro.net.node import Node
from repro.policies import ScatterPolicy
from repro.sim.events import EventHandle
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.storage.disk import NodeDisk, ReplicaStorage, StorageConfig
from repro.txn.spec import (
    GroupPlan,
    MergeSpec,
    MigrateSpec,
    RepartitionSpec,
    SplitSpec,
    TxnDecision,
    TxnSpec,
    new_txn_id,
)


# A non-leader replica with no leader contact for this long asks around
# for its group's fate; a "moved" answer retires it locally (the group
# completed a split/merge while this node was cut off).
ORPHAN_TIMEOUT = 10.0
# Group infos a node caches for routing, beyond the groups it hosts.
ROUTING_CACHE_SIZE = 64


@dataclass
class ScatterConfig:
    """Timing and sizing knobs for a Scatter deployment."""

    paxos: PaxosConfig = field(default_factory=PaxosConfig)
    maintenance_interval: float = 1.0
    dead_timeout: float = 3.0
    txn_rpc_timeout: float = 2.0
    txn_recovery_timeout: float = 8.0
    txn_cooldown: float = 3.0
    gossip_interval: float = 4.0
    retired_linger: float = 45.0
    # Suspicion horizon for *repair* (policy.repair): a member unreachable
    # this long is treated as permanently lost when computing the group's
    # live replication level.  Longer than dead_timeout so transient
    # crashes are removed-and-rejoined without triggering a repair.
    repair_suspicion: float = 6.0
    join_retry: float = 1.0
    # CPU service time a node spends per client operation (seconds).
    # Zero disables the queueing model; a positive value makes nodes
    # saturate under offered load, giving the classic latency-throughput
    # curve (experiment E14).
    op_service_time: float = 0.0
    # CPU service time per inbound *group* (Paxos) message, through the
    # same per-node CPU queue as op_service_time.  Models deployments
    # where per-message constant costs (syscalls, dispatch, serialization)
    # dominate the write path — exactly what batch commands and
    # pipelining amortize.  Zero (default) keeps message handling free.
    msg_service_time: float = 0.0
    # Durable-storage model (repro.storage).  None keeps the historical
    # fiction (restart recovers the replica object perfectly and no disk
    # events exist); a StorageConfig gives every node a simulated disk
    # with WAL + snapshots, power-failure crash semantics, and real
    # recovery on restart.
    storage: "StorageConfig | None" = None


class _GroupTransport:
    """Frames a replica's Paxos traffic with its group id."""

    def __init__(self, node: "ScatterNode", gid: str) -> None:
        self._node = node
        self._gid = gid

    @property
    def now(self) -> float:
        return self._node.sim.now

    @property
    def tracer(self) -> Any:
        return self._node.sim.tracer

    def send(self, dst: str, msg: Any) -> None:
        self._node.send(dst, GroupMsg(self._gid, msg))

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        return self._node.set_timer(delay, fn, *args)

    def rng(self) -> random.Random:
        return self._node.sim.rng(f"paxos:{self._node.node_id}:{self._gid}")


class ScatterNode(Node):
    """A physical Scatter node.

    Hosts one :class:`GroupReplica` per group it belongs to (normally
    one; transiently more around group operations), answers client and
    overlay RPCs, and runs the maintenance loop that embodies the
    configured :class:`ScatterPolicy`.
    """

    def __init__(
        self,
        node_id: str,
        sim: Simulator,
        net: SimNetwork,
        config: ScatterConfig | None = None,
        policy: ScatterPolicy | None = None,
    ) -> None:
        super().__init__(node_id, sim, net)
        self.config = config or ScatterConfig()
        self.policy = policy or ScatterPolicy()
        if self.config.storage is not None:
            self.disk = NodeDisk(
                node_id, self.config.storage, tracer=sim.tracer, set_timer=self.set_timer
            )
        self.groups: dict[str, GroupReplica] = {}
        self.forwarding: dict[str, tuple[GroupInfo, ...]] = {}
        self.txn_outcomes: dict[str, tuple[TxnDecision, dict]] = {}
        self.cache: dict[str, GroupInfo] = {}
        self.coordinating: set[str] = set()
        self._retired_at: dict[str, float] = {}
        self._last_txn_attempt: dict[str, float] = {}
        # gid -> sim time the group's live membership first fell below
        # the repair floor (only populated when policy.repair is on).
        self._below_floor_since: dict[str, float] = {}
        self._gid_counter = 0
        self._rng = sim.rng(f"scatter:{node_id}")
        self.stats_txns: dict[str, int] = {}
        self._svc_free_at = 0.0  # CPU queue head for the service model

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin maintenance and gossip (call once the node is in place)."""
        jitter = self._rng.uniform(0.0, self.config.maintenance_interval)
        self.set_timer(jitter, self._maintenance_tick)
        self.set_timer(self._rng.uniform(0.0, self.config.gossip_interval), self._gossip_tick)

    def on_restart(self) -> None:
        for replica in self.groups.values():
            replica.paxos.on_host_restart()
        self.start()

    def start_join(self, seed: str) -> Future:
        """Join the overlay through ``seed``; resolves with the group id."""
        return spawn(self.sim, self._join_proc(seed))

    # ------------------------------------------------------------------
    # GroupHost protocol (called by replicas during apply)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def group_transport(self, gid: str) -> _GroupTransport:
        return _GroupTransport(self, gid)

    def replica_storage(self, gid: str) -> ReplicaStorage | None:
        """Durable region for ``gid`` on this node's disk (None = no disk)."""
        if self.disk is None:
            return None
        return self.disk.storage_for(gid)

    def create_group(self, genesis: GroupGenesis) -> None:
        if genesis.gid in self.groups or genesis.gid in self.forwarding:
            return
        self.groups[genesis.gid] = GroupReplica(self, genesis, self.config.paxos)

    def on_group_retired(self, gid: str, forwarding: tuple[GroupInfo, ...]) -> None:
        self.forwarding[gid] = forwarding
        self._retired_at[gid] = self.sim.now
        self.cache.pop(gid, None)

    def record_txn_outcome(self, txn_id: str, decision: TxnDecision, data: dict) -> None:
        self.txn_outcomes.setdefault(txn_id, (decision, data))

    def after_migrate_commit(self, spec: MigrateSpec, gid: str) -> None:
        # Decouple from the apply path; the follow-up is a fresh proposal.
        self.set_timer(0.0, self._migrate_followup, spec, gid)

    def _migrate_followup(self, spec: MigrateSpec, gid: str) -> None:
        replica = self.groups.get(gid)
        if replica is None or not replica.is_leader:
            return
        if gid == spec.from_gid and spec.node in replica.paxos.members:
            replica.paxos.propose(Command.config("remove", spec.node))
        elif gid == spec.to_gid and spec.node not in replica.paxos.members:
            future = replica.paxos.propose(Command.config("add", spec.node))
            future.add_callback(lambda f: self._send_welcome(f, gid, spec.node))

    def _send_welcome(self, future: Future, gid: str, node: str) -> None:
        replica = self.groups.get(gid)
        if future.exception is None and replica is not None:
            self.send(node, WelcomeMsg(genesis=replica.genesis))

    # ------------------------------------------------------------------
    # Knowledge of the overlay
    # ------------------------------------------------------------------
    def known_groups(self) -> list[GroupInfo]:
        """Best current knowledge: hosted groups, their neighbors, cache."""
        infos: dict[str, GroupInfo] = {}
        for replica in self.groups.values():
            if replica.status is GroupStatus.RETIRED:
                continue
            infos[replica.gid] = replica.info()
            for neighbor in (replica.predecessor, replica.successor):
                if neighbor is not None and neighbor.gid not in infos:
                    infos.setdefault(neighbor.gid, neighbor)
        for gid, info in self.cache.items():
            infos.setdefault(gid, info)
        return [info for gid, info in infos.items() if gid not in self.forwarding]

    def learn(self, info: GroupInfo) -> None:
        """Absorb routing knowledge (bounded cache, forwarding-aware)."""
        if info.gid in self.groups or info.gid in self.forwarding:
            return
        cached = self.cache.get(info.gid)
        if cached is not None and cached.epoch > info.epoch:
            return  # keep the fresher view
        if cached is None and len(self.cache) >= ROUTING_CACHE_SIZE:
            self.cache.pop(next(iter(self.cache)))
        self.cache[info.gid] = info

    # ------------------------------------------------------------------
    # Message handlers: Paxos plumbing
    # ------------------------------------------------------------------
    def _on_group_msg(self, src: str, msg: GroupMsg) -> None:
        if self.config.msg_service_time > 0:
            # Same CPU queue as op_service_time: each group message costs
            # msg_service_time of node CPU before it is handled, so a
            # chatty write path saturates the node and batching pays.
            start = max(self.sim.now, self._svc_free_at)
            self._svc_free_at = start + self.config.msg_service_time
            self.set_timer(self._svc_free_at - self.sim.now, self._handle_group_msg, src, msg)
            return
        self._handle_group_msg(src, msg)

    def _handle_group_msg(self, src: str, msg: GroupMsg) -> None:
        replica = self.groups.get(msg.gid)
        if replica is not None:
            replica.paxos.on_message(src, msg.inner)

    # ------------------------------------------------------------------
    # Message handlers: client operations
    # ------------------------------------------------------------------
    def _on_client_op(self, src: str, msg: ClientOpReq) -> Any:
        if self.config.op_service_time > 0:
            # M/D/1-style CPU queue: each operation occupies the node for
            # op_service_time; requests queue behind earlier ones.
            start = max(self.sim.now, self._svc_free_at)
            self._svc_free_at = start + self.config.op_service_time
            delay = self._svc_free_at - self.sim.now
            out = Future()
            self.set_timer(delay, self._serve_client_op, src, msg, out)
            return out
        return self._serve_client_op_now(src, msg)

    def _serve_client_op(self, src: str, msg: ClientOpReq, out: Future) -> None:
        result = self._serve_client_op_now(src, msg)
        if isinstance(result, Future):
            result.add_callback(lambda f: out.set_result(f.result()) if f.exception is None else out.set_exception(f.exception))
        else:
            out.set_result(result)

    def _serve_client_op_now(self, src: str, msg: ClientOpReq) -> Any:
        key = msg.op.key
        # Retired groups linger in self.groups and never serve: after a
        # split, the retired group and its replacement both contain the
        # key on this host.
        replica = None
        for hosted in self.groups.values():
            if hosted.status is not GroupStatus.RETIRED and hosted.range.contains(key):
                replica = hosted
                break
        if replica is not None:
            if replica.status is GroupStatus.FROZEN:
                return ClientOpResp(status="busy")
            if not replica.is_leader:
                # Scale-out read path: a follower with a live read grant
                # serves the Get from its applied store state
                # (PaxosConfig.follower_reads); otherwise bounce the
                # client to the leader as before.
                local = replica.follower_read(msg.op)
                if local is not None:
                    return ClientOpResp(status="ok", result=local)
                return ClientOpResp(
                    status="not_leader",
                    leader_hint=replica.paxos.leader_hint,
                    groups=(replica.info(),),
                )
            # A lease read is answered now; an op that waits on the log
            # is a Future.
            result = replica.client_op(msg.op, msg.dedup)
            if isinstance(result, Future):
                return _map_future(result, self._client_result_to_resp)
            return ClientOpResp(status="ok", result=result)
        candidates = self._redirect_candidates(key)
        if not candidates:
            return ClientOpResp(status="lost")
        return ClientOpResp(status="redirect", groups=tuple(candidates[:5]))

    def _client_result_to_resp(self, future: Future) -> ClientOpResp:
        exc = future.exception
        if exc is None:
            result = future.result()
            if isinstance(result, str):  # refused at apply: "busy" or "redirect"
                return ClientOpResp(status=result)
            return ClientOpResp(status="ok", result=result)
        if isinstance(exc, NotLeader):
            return ClientOpResp(status="not_leader", leader_hint=exc.leader_hint)
        return ClientOpResp(status="busy")  # ProposalLost etc: client retries

    def _redirect_candidates(self, key: int) -> list[GroupInfo]:
        """Known groups ordered by how close their start precedes ``key``."""
        infos = self._freshest_groups()
        containing = [g for g in infos if g.range.contains(key)]
        if containing:
            return containing
        return sorted(infos, key=lambda g: ring_distance(g.range.lo, key))

    # ------------------------------------------------------------------
    # Message handlers: join / leave
    # ------------------------------------------------------------------
    def _on_join_lookup(self, src: str, msg: JoinLookupReq) -> JoinLookupResp:
        target = self.policy.choose_join_target(self._freshest_groups(), self._rng)
        return JoinLookupResp(target=target)

    def _on_group_join(self, src: str, msg: GroupJoinReq) -> Any:
        replica = self.groups.get(msg.gid)
        if replica is None:
            fwd = self.forwarding.get(msg.gid)
            if fwd:
                return GroupJoinResp(status="moved", groups=fwd)
            return GroupJoinResp(status="unknown_group")
        if replica.status is GroupStatus.RETIRED:
            return GroupJoinResp(status="moved", groups=replica.forwarding)
        if not replica.is_leader:
            return GroupJoinResp(status="not_leader", leader_hint=replica.paxos.leader_hint)
        if replica.active_txn is not None:
            return GroupJoinResp(status="busy")
        if src in replica.paxos.members:
            return GroupJoinResp(status="ok", genesis=replica.genesis)
        future = replica.paxos.propose(Command.config("add", src))
        return _map_future(
            future,
            lambda f: GroupJoinResp(status="ok", genesis=replica.genesis)
            if f.exception is None
            else GroupJoinResp(status="busy"),
        )

    def _on_group_leave(self, src: str, msg: GroupLeaveReq) -> Any:
        replica = self.groups.get(msg.gid)
        if replica is None or replica.status is GroupStatus.RETIRED:
            return GroupJoinResp(status="unknown_group")
        if not replica.is_leader:
            return GroupJoinResp(status="not_leader", leader_hint=replica.paxos.leader_hint)
        if replica.active_txn is not None:
            return GroupJoinResp(status="busy")
        if src not in replica.paxos.members:
            return GroupJoinResp(status="ok")
        future = replica.paxos.propose(Command.config("remove", src))
        return _map_future(
            future,
            lambda f: GroupJoinResp(status="ok")
            if f.exception is None
            else GroupJoinResp(status="busy"),
        )

    def _on_welcome(self, src: str, msg: WelcomeMsg) -> None:
        self.create_group(msg.genesis)

    def _join_proc(self, seed: str):
        """Process: locate a group via the seed, join it, host its replica."""
        while self.alive and not self.groups:
            try:
                lookup = yield self.request(seed, JoinLookupReq(), timeout=self.config.join_retry)
            except (RpcTimeout, RpcError):
                yield _sleep(self.sim, self.config.join_retry)
                continue
            target = lookup.target
            attempts = 0
            while target is not None and attempts < 8 and not self.groups:
                attempts += 1
                try:
                    resp = yield from group_request(
                        self,
                        target,
                        lambda: GroupJoinReq(gid=target.gid),
                        timeout=self.config.txn_rpc_timeout,
                    )
                except GroupUnreachable:
                    break
                if resp.status == "ok" and resp.genesis is not None:
                    self.create_group(resp.genesis)
                    return resp.genesis.gid
                if resp.status == "moved" and resp.groups:
                    target = resp.groups[0]
                    continue
                yield _sleep(self.sim, self.config.join_retry)
            yield _sleep(self.sim, self.config.join_retry)
        if self.groups:
            return next(iter(self.groups))
        return None

    # ------------------------------------------------------------------
    # Message handlers: transactions
    # ------------------------------------------------------------------
    def _txn_target(self, gid: str) -> GroupReplica | TxnResp:
        replica = self.groups.get(gid)
        if replica is None:
            return TxnResp(status="unknown_group")
        if not replica.is_leader:
            return TxnResp(status="not_leader", leader_hint=replica.paxos.leader_hint)
        return replica

    def _on_txn_prepare(self, src: str, msg: TxnPrepareReq) -> Any:
        target = self._txn_target(msg.gid)
        if isinstance(target, TxnResp):
            return target
        future = target.paxos.propose(Command(kind="txn_prepare", payload=msg.spec))
        return _map_future(future, _txn_apply_to_resp)

    def _on_txn_commit(self, src: str, msg: TxnCommitReq) -> Any:
        target = self._txn_target(msg.gid)
        if isinstance(target, TxnResp):
            return target
        if msg.spec.txn_id in target.completed_txns:
            return TxnResp(status="dup")
        future = target.paxos.propose(
            Command(kind="txn_commit", payload=TxnCommitCmd(spec=msg.spec, data=msg.data))
        )
        return _map_future(future, _txn_apply_to_resp)

    def _on_txn_abort(self, src: str, msg: TxnAbortReq) -> Any:
        target = self._txn_target(msg.gid)
        if isinstance(target, TxnResp):
            return target
        if msg.spec.txn_id in target.completed_txns:
            return TxnResp(status="dup")
        future = target.paxos.propose(
            Command(kind="txn_abort", payload=TxnAbortCmd(spec=msg.spec))
        )
        return _map_future(future, _txn_apply_to_resp)

    def _on_txn_status(self, src: str, msg: TxnStatusReq) -> TxnStatusResp:
        spec = msg.spec
        outcome = self.txn_outcomes.get(spec.txn_id)
        if outcome is not None:
            decision, data = outcome
            return TxnStatusResp(status=decision.value, data=data)
        # If we lead the coordinator group and nobody is driving this
        # transaction any more, decide abort so participants can unlock.
        replica = self.groups.get(spec.coordinator_gid)
        if (
            replica is not None
            and replica.is_leader
            and replica.active_txn is not None
            and replica.active_txn.txn_id == spec.txn_id
            and spec.coordinator_gid not in self.coordinating
        ):
            replica.paxos.propose(Command(kind="txn_abort", payload=TxnAbortCmd(spec=spec)))
        return TxnStatusResp(status="unknown")


    def _on_group_neighbors(self, src: str, msg: GroupNeighborsReq) -> GroupNeighborsResp:
        replica = self.groups.get(msg.gid)
        if replica is None:
            fwd = self.forwarding.get(msg.gid)
            if fwd:
                return GroupNeighborsResp(status="moved", groups=fwd)
            return GroupNeighborsResp(status="unknown_group")
        if replica.status is GroupStatus.RETIRED:
            return GroupNeighborsResp(status="moved", groups=replica.forwarding)
        if not replica.is_leader:
            return GroupNeighborsResp(status="not_leader", leader_hint=replica.paxos.leader_hint)
        if replica.active_txn is not None or replica.status is GroupStatus.FROZEN:
            return GroupNeighborsResp(status="busy")
        return GroupNeighborsResp(
            status="ok",
            info=replica.info(),
            predecessor=replica.predecessor,
            successor=replica.successor,
        )

    # ------------------------------------------------------------------
    # Gossip (finger maintenance)
    # ------------------------------------------------------------------
    def _on_gossip(self, src: str, msg: GossipReq) -> GossipResp:
        infos = self._freshest_groups()
        self._rng.shuffle(infos)
        return GossipResp(infos=tuple(infos[:8]))

    def _gossip_tick(self) -> None:
        peers = sorted(
            {m for info in self.known_groups() for m in info.members} - {self.node_id}
        )
        if peers:
            peer = self._rng.choice(peers)
            future = self.request(peer, GossipReq(), timeout=1.0)
            future.add_callback(self._absorb_gossip)
        self.set_timer(self.config.gossip_interval, self._gossip_tick)

    def _absorb_gossip(self, future: Future) -> None:
        if future.exception is not None or not self.alive:
            return
        for info in future.result().infos:
            self.learn(info)

    # ------------------------------------------------------------------
    # Maintenance loop
    # ------------------------------------------------------------------
    def _maintenance_tick(self) -> None:
        for gid in list(self.groups):
            replica = self.groups.get(gid)
            if replica is not None:
                self._maintain_group(replica)
        self.set_timer(
            self.config.maintenance_interval * self._rng.uniform(0.8, 1.2),
            self._maintenance_tick,
        )

    def _maintain_group(self, replica: GroupReplica) -> None:
        gid = replica.gid
        if replica.status is not GroupStatus.RETIRED and gid in self.forwarding:
            # Zombie: this node recorded the group's retirement (the
            # forwarding entry was written when the split/merge commit
            # applied) but the replica resurrected from a pre-retirement
            # disk image after a crash.  Without this check an all-
            # zombie group can answer clients for a range the ring has
            # reassigned — its own members are the only peers orphan
            # resolution would ask, and they are zombies too.
            replica.status = GroupStatus.RETIRED
            replica.forwarding = self.forwarding[gid]
            self._retired_at.setdefault(gid, self.sim.now)
            return
        if replica.status is GroupStatus.RETIRED:
            if self.sim.now - self._retired_at.get(gid, self.sim.now) > self.config.retired_linger:
                replica.paxos.retire()
                del self.groups[gid]
            return
        if replica.paxos.retired:
            # We were removed from the group's membership: drop our replica.
            del self.groups[gid]
            return
        if not replica.is_leader:
            self._maybe_resolve_orphan(replica)
            return
        if replica.active_txn is not None:
            self._maybe_recover_txn(replica)
            return
        if self._remove_dead_member(replica):
            return
        if self.sim.now - self._last_txn_attempt.get(gid, -1e9) < self.config.txn_cooldown:
            return
        if gid in self.coordinating:
            return
        if self._maybe_repair(replica):
            return
        if self.policy.wants_split(replica) and len(replica.members) >= 2:
            self._last_txn_attempt[gid] = self.sim.now
            self.start_split(replica)
        elif self.policy.wants_merge(replica):
            self._last_txn_attempt[gid] = self.sim.now
            self.start_merge(replica)
        else:
            migration = self.policy.choose_migration(
                replica, self.known_groups(), self._rng
            )
            if migration is not None:
                member, destination = migration
                self._last_txn_attempt[gid] = self.sim.now
                self.start_migrate(replica, member, destination)
            else:
                self._maybe_transfer_leadership(replica)

    def _maybe_resolve_orphan(self, replica: GroupReplica) -> None:
        """A long-leaderless replica may have missed its group's retirement.

        Ask a peer; if the group moved on, retire our replica so we stop
        answering clients from a stale range (and so this host can be
        garbage collected or rejoin elsewhere).
        """
        paxos = replica.paxos
        idle = self.sim.now - paxos.last_leader_contact
        if idle < ORPHAN_TIMEOUT:
            return
        peers = [m for m in paxos.members if m != self.node_id]
        if not peers:
            return
        peer = self._rng.choice(peers)
        future = self.request(
            peer, GroupNeighborsReq(gid=replica.gid), timeout=self.config.txn_rpc_timeout
        )

        def on_answer(f: Future) -> None:
            if not self.alive or f.exception is not None:
                return
            resp = f.result()
            if resp.status == "moved" and replica.status is not GroupStatus.RETIRED:
                replica.status = GroupStatus.RETIRED
                replica.forwarding = resp.groups
                self.on_group_retired(replica.gid, resp.groups)
                for info in resp.groups:
                    self.learn(info)

        future.add_callback(on_answer)

    def _remove_dead_member(self, replica: GroupReplica) -> bool:
        suspected = replica.paxos.suspected_members(self.config.dead_timeout)
        if not suspected or len(replica.paxos.members) <= 1:
            return False
        replica.paxos.propose(Command.config("remove", suspected[0]))
        return True

    def _maybe_repair(self, replica: GroupReplica) -> bool:
        """Self-healing: restore a group's live replication to the floor.

        The leader counts members unreachable past the repair-suspicion
        horizon as lost.  When the survivors fall below the policy's
        repair floor it pulls a spare node in from the healthiest donor
        group (a migrate *coordinated by the fragile group*, so the
        repair serializes through this group's Paxos log and cannot race
        its own splits/merges); with no donor anywhere, it merges with
        its successor instead.  Returns True when a repair was launched
        this tick.  A no-op unless ``policy.repair`` — the disabled path
        touches no state, draws no randomness, sends nothing.
        """
        if not self.policy.repair:
            return False
        gid = replica.gid
        floor = self.policy.effective_repair_floor()
        suspected = set(replica.paxos.suspected_members(self.config.repair_suspicion))
        healthy = [m for m in replica.members if m not in suspected]
        tracer = self.sim.tracer
        if len(healthy) >= floor:
            since = self._below_floor_since.pop(gid, None)
            if since is not None and tracer is not None:
                tracer.metrics.observe("repair.restore_seconds", self.sim.now - since)
            return False
        if gid not in self._below_floor_since:
            self._below_floor_since[gid] = self.sim.now
            if tracer is not None:
                tracer.metrics.inc("repair.below_floor")
        donation = self.policy.choose_repair_donor(replica, self._freshest_groups())
        if donation is not None:
            node, donor = donation
            self._last_txn_attempt[gid] = self.sim.now
            if tracer is not None:
                tracer.metrics.inc("repair.triggered")
                tracer.metrics.inc("repair.migrate")
            self.start_repair_migrate(replica, node, donor)
            return True
        succ = replica.successor
        if succ is not None and succ.gid != gid:
            self._last_txn_attempt[gid] = self.sim.now
            if tracer is not None:
                tracer.metrics.inc("repair.triggered")
                tracer.metrics.inc("repair.merge")
            self.start_merge(replica)
            return True
        return False

    def _freshest_groups(self) -> list[GroupInfo]:
        """The group view served to clients, joiners, gossip peers and
        the repair donor chooser: ``known_groups``, but a newer-epoch
        cache entry wins over a stale neighbor pointer.

        A group can turn over its entire membership (every original
        member lost, every seat refilled by migrates).  A stale pointer
        then names only dead nodes; served as-is it would re-propagate
        through gossip and leave a healthy group unroutable, and the
        donor chooser would re-pick a donor whose membership it
        overstates every tick.
        """
        infos = {info.gid: info for info in self.known_groups()}
        for gid, info in self.cache.items():
            cur = infos.get(gid)
            if cur is not None and gid not in self.groups and info.epoch > cur.epoch:
                infos[gid] = info
        return list(infos.values())

    def _maybe_transfer_leadership(self, replica: GroupReplica) -> None:
        expected = lambda a, b: self.net.latency.expected(a, b)
        better = self.policy.choose_leader(replica, expected)
        if better is not None:
            replica.paxos.transfer_leadership(better)

    def _maybe_recover_txn(self, replica: GroupReplica) -> None:
        spec = replica.active_txn
        if spec is None:
            return
        age = self.sim.now - replica.frozen_since
        if age < self.config.txn_recovery_timeout:
            return
        if spec.coordinator_gid == replica.gid:
            if replica.gid not in self.coordinating:
                # The driver died with the lock held: decide abort.
                replica.paxos.propose(
                    Command(kind="txn_abort", payload=TxnAbortCmd(spec=spec))
                )
            return
        spawn(self.sim, self._recover_participant(replica, spec))

    def _recover_participant(self, replica: GroupReplica, spec: TxnSpec):
        """Ask the coordinator group for the outcome and enact it."""
        for member in spec.coordinator_members:
            if not self.alive or replica.active_txn is not spec:
                return
            try:
                resp = yield self.request(
                    member, TxnStatusReq(spec=spec), timeout=self.config.txn_rpc_timeout
                )
            except (RpcTimeout, RpcError):
                continue
            if resp.status == TxnDecision.COMMITTED.value:
                replica.paxos.propose(
                    Command(kind="txn_commit", payload=TxnCommitCmd(spec=spec, data=resp.data))
                )
                return
            if resp.status == TxnDecision.ABORTED.value:
                replica.paxos.propose(
                    Command(kind="txn_abort", payload=TxnAbortCmd(spec=spec))
                )
                return
            # "unknown": the query itself nudges the coordinator to decide;
            # we will retry on the next maintenance tick.
            return

    # ------------------------------------------------------------------
    # Group operation initiation (coordinator side)
    # ------------------------------------------------------------------
    def start_split(self, replica: GroupReplica, split_key: int | None = None) -> Future:
        from repro.txn.coordinator import run_group_operation

        key = split_key if split_key is not None else self.policy.choose_split_key(replica)
        if key == replica.range.lo or not replica.range.contains(key):
            return _failed_future(ValueError(f"bad split key {key}"))
        members = replica.members
        partitionable = members
        if self.policy.repair:
            # Don't deal a suspected-lost member into a child group: a
            # two-member child whose other half is gone can never elect
            # a leader again, and no repair can reach a leaderless group.
            lost = set(replica.paxos.suspected_members(self.config.repair_suspicion))
            live = [m for m in members if m not in lost]
            if len(live) >= 2:
                partitionable = live
        left_members, right_members = self.policy.partition_members(partitionable, self._rng)
        if not left_members or not right_members:
            return _failed_future(ValueError("not enough members to split"))
        left_range, right_range = replica.range.split_at(key)
        spec = SplitSpec(
            txn_id=new_txn_id(self.node_id),
            coordinator_gid=replica.gid,
            coordinator_members=tuple(members),
            gid=replica.gid,
            split_key=key,
            left=GroupPlan(self._new_gid(), left_range, left_members, left_members[0]),
            right=GroupPlan(self._new_gid(), right_range, right_members, right_members[0]),
            pred_gid=replica.predecessor.gid if replica.predecessor else None,
            succ_gid=replica.successor.gid if replica.successor else None,
        )
        infos = {}
        if replica.predecessor is not None:
            infos[replica.predecessor.gid] = replica.predecessor
        if replica.successor is not None:
            infos[replica.successor.gid] = replica.successor
        self._count_txn("split")
        return run_group_operation(self, replica, spec, infos)

    def start_merge(self, replica: GroupReplica) -> Future:
        """Merge this group (as left) with its successor group.

        The coordinator first fetches the successor's fresh info and
        adjacency so the spec is built from a current view; a stale view
        would be caught by the participants' prepare validation anyway,
        but the fetch makes merges succeed on the first try.
        """
        return spawn(self.sim, self._merge_proc(replica))

    def _merge_proc(self, replica: GroupReplica):
        from repro.txn.coordinator import run_group_operation

        succ = replica.successor
        if succ is None or succ.gid == replica.gid:
            raise ValueError("no distinct successor to merge with")
        try:
            resp = yield from group_request(
                self,
                succ,
                lambda: GroupNeighborsReq(gid=succ.gid),
                timeout=self.config.txn_rpc_timeout,
            )
        except GroupUnreachable as exc:
            raise ValueError(f"successor unreachable: {exc}") from exc
        if resp.status != "ok" or resp.info is None:
            raise ValueError(f"successor not mergeable: {resp.status}")
        partner = resp.info
        merged_range = replica.range.merge(partner.range)
        members = tuple(sorted(set(replica.members) | set(partner.members)))
        spec = MergeSpec(
            txn_id=new_txn_id(self.node_id),
            coordinator_gid=replica.gid,
            coordinator_members=tuple(replica.members),
            left_gid=replica.gid,
            right_gid=partner.gid,
            merged=GroupPlan(self._new_gid(), merged_range, members, self.node_id),
            outer_pred_info=self._resolve_outer(replica.predecessor, replica.gid, partner.gid),
            outer_succ_info=self._resolve_outer(resp.successor, replica.gid, partner.gid),
        )
        infos = {replica.gid: replica.info(), partner.gid: partner}
        if spec.outer_pred_info is not None:
            infos[spec.outer_pred_info.gid] = spec.outer_pred_info
        if spec.outer_succ_info is not None:
            infos[spec.outer_succ_info.gid] = spec.outer_succ_info
        self._count_txn("merge")
        result = yield run_group_operation(self, replica, spec, infos)
        return result

    def _resolve_outer(
        self, info: GroupInfo | None, left_gid: str, right_gid: str
    ) -> GroupInfo | None:
        """Outer neighbors collapse to None in a one/two-group ring."""
        if info is None or info.gid in (left_gid, right_gid):
            return None
        return info

    def start_migrate(self, replica: GroupReplica, node: str, to: GroupInfo) -> Future:
        from repro.txn.coordinator import run_group_operation

        spec = MigrateSpec(
            txn_id=new_txn_id(self.node_id),
            coordinator_gid=replica.gid,
            coordinator_members=tuple(replica.members),
            node=node,
            from_gid=replica.gid,
            to_gid=to.gid,
        )
        self._count_txn("migrate")
        return run_group_operation(self, replica, spec, {to.gid: to})

    def start_repair_migrate(self, replica: GroupReplica, node: str, donor: GroupInfo) -> Future:
        """Pull ``node`` in *from* ``donor`` to reinforce this group.

        The mirror image of :meth:`start_migrate`: the fragile group is
        the destination *and* the coordinator, so the repair occupies a
        slot in its own Paxos log and the usual prepare validation
        (busy/frozen/stale refusals) serializes it against any
        concurrent split, merge, or competing repair.
        """
        return spawn(self.sim, self._repair_migrate_proc(replica, node, donor))

    def _repair_migrate_proc(self, replica: GroupReplica, node: str, donor: GroupInfo):
        from repro.txn.coordinator import run_group_operation

        # The cached GroupInfo that nominated the spare may predate a
        # split or migrate in the donor; a spec naming a non-member is
        # refused by every donor replica, forever.  Refresh membership
        # from the donor's leader first and re-pick the spare.
        try:
            resp = yield from group_request(
                self,
                donor,
                lambda: GroupNeighborsReq(gid=donor.gid),
                timeout=self.config.txn_rpc_timeout,
            )
        except GroupUnreachable as exc:
            raise ValueError(f"donor unreachable: {exc}") from exc
        if resp.status != "ok" or resp.info is None:
            raise ValueError(f"donor not usable: {resp.status}")
        fresh = resp.info
        self.learn(fresh)
        floor = self.policy.effective_repair_floor()
        spares = sorted(set(fresh.members) - set(replica.members))
        if len(fresh.members) <= floor or not spares:
            # The cached view overstated the donor.  Fall back to the
            # merge path in this same attempt rather than waiting a
            # cooldown to re-discover the exhaustion.
            succ = replica.successor
            if succ is not None and succ.gid != replica.gid:
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.metrics.inc("repair.merge")
                result = yield self.start_merge(replica)
                return result
            raise ValueError("donor has no spare to give")
        if node not in spares:
            node = spares[0]
        spec = MigrateSpec(
            txn_id=new_txn_id(self.node_id),
            coordinator_gid=replica.gid,
            coordinator_members=tuple(replica.members),
            node=node,
            from_gid=fresh.gid,
            to_gid=replica.gid,
        )
        self._count_txn("repair_migrate")
        result = yield run_group_operation(self, replica, spec, {fresh.gid: fresh})
        return result

    def start_repartition(self, replica: GroupReplica, new_boundary: int) -> Future:
        """Move this group's boundary with its successor to ``new_boundary``."""
        from repro.txn.coordinator import run_group_operation

        succ = replica.successor
        if succ is None:
            return _failed_future(ValueError("no successor"))
        if replica.range.contains(new_boundary) and new_boundary != replica.range.lo:
            donor = replica.gid
        elif succ.range.contains(new_boundary):
            donor = succ.gid
        else:
            return _failed_future(ValueError("boundary outside both ranges"))
        spec = RepartitionSpec(
            txn_id=new_txn_id(self.node_id),
            coordinator_gid=replica.gid,
            coordinator_members=tuple(replica.members),
            left_gid=replica.gid,
            right_gid=succ.gid,
            new_boundary=new_boundary,
            donor_gid=donor,
        )
        self._count_txn("repartition")
        return run_group_operation(self, replica, spec, {succ.gid: succ})

    def _new_gid(self) -> str:
        self._gid_counter += 1
        return f"g{self._gid_counter}@{self.node_id}"

    def _count_txn(self, kind: str) -> None:
        self.stats_txns[kind] = self.stats_txns.get(kind, 0) + 1

    _HANDLERS = {
        GroupMsg: _on_group_msg,
        ClientOpReq: _on_client_op,
        JoinLookupReq: _on_join_lookup,
        GroupJoinReq: _on_group_join,
        GroupLeaveReq: _on_group_leave,
        WelcomeMsg: _on_welcome,
        TxnPrepareReq: _on_txn_prepare,
        TxnCommitReq: _on_txn_commit,
        TxnAbortReq: _on_txn_abort,
        TxnStatusReq: _on_txn_status,
        GroupNeighborsReq: _on_group_neighbors,
        GossipReq: _on_gossip,
    }


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def _map_future(source: Future, fn: Callable[[Future], Any]) -> Future:
    """New future resolving with ``fn(source)`` once ``source`` is done."""
    out = Future()
    source.add_callback(lambda f: out.set_result(fn(f)))
    return out


def _txn_apply_to_resp(future: Future) -> TxnResp:
    exc = future.exception
    if exc is None:
        status, data = future.result()
        return TxnResp(status=status, data=data)
    if isinstance(exc, NotLeader):
        return TxnResp(status="not_leader", leader_hint=exc.leader_hint)
    return TxnResp(status="refused", data=str(exc))


def _failed_future(exc: Exception) -> Future:
    future = Future()
    future.set_exception(exc)
    return future


def _sleep(sim: Simulator, delay: float) -> Future:
    future = Future()
    sim.schedule(delay, future.set_result, None)
    return future
