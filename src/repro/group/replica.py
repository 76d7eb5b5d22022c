"""One node's replica of one Scatter group."""

from __future__ import annotations

import enum
from array import array
from collections import Counter
from typing import Any, Protocol

from repro.consensus.commands import CMD_BATCH, CMD_CONFIG, CMD_NOOP, CMD_READ, Command
from repro.consensus.replica import PaxosConfig, PaxosReplica
from repro.consensus.transport import Transport
from repro.dht.ring import KeyRange
from repro.group.commands import TxnAbortCmd, TxnCommitCmd
from repro.group.info import GroupGenesis, GroupInfo
from repro.net.futures import Future
from repro.obs.spans import GROUP_FOLLOWER_READ, GROUP_FREEZE
from repro.store.kvstore import KvOp, KvResult, KvStore, OP_GET, RangeState, merge_sessions
from repro.txn.spec import (
    MergeSpec,
    MigrateSpec,
    RepartitionSpec,
    SplitSpec,
    TxnDecision,
    TxnSpec,
)


_NO_KEYS: frozenset = frozenset()


class GroupStatus(enum.Enum):
    """Lifecycle of a group replica's storage state."""

    ACTIVE = "active"
    FROZEN = "frozen"  # storage locked by a prepared data transaction
    RETIRED = "retired"  # replaced by split/merge; forwards to successors


class GroupHost(Protocol):
    """What a group replica needs from the physical node hosting it."""

    node_id: str

    @property
    def now(self) -> float:
        """Current virtual time."""

    def group_transport(self, gid: str) -> Transport:
        """Transport that frames Paxos messages with the group id."""

    def create_group(self, genesis: GroupGenesis) -> None:
        """Instantiate a replica of a newly created group on this node."""

    def on_group_retired(self, gid: str, forwarding: tuple[GroupInfo, ...]) -> None:
        """Record that ``gid`` was replaced by the ``forwarding`` groups."""

    def record_txn_outcome(self, txn_id: str, decision: TxnDecision, data: dict) -> None:
        """Cache a transaction outcome for recovery status queries."""

    def after_migrate_commit(self, spec: MigrateSpec, gid: str) -> None:
        """Leader-side follow-up: issue the config changes for a migration."""

    # Hosts that model durability additionally expose
    # ``replica_storage(gid) -> ReplicaStorage | None``; the group replica
    # discovers it via getattr so Protocol fakes in tests stay valid.


class GroupReplica:
    """Paxos replica + key-value store + overlay metadata for one group.

    All overlay state transitions (freeze, retire, range changes,
    neighbor pointer updates) happen inside :meth:`_apply`, driven by the
    group's log, so every member makes the same transition at the same
    log position.
    """

    def __init__(
        self,
        host: GroupHost,
        genesis: GroupGenesis,
        paxos_config: PaxosConfig | None = None,
    ) -> None:
        self.host = host
        self.genesis = genesis
        self.gid = genesis.gid
        self.range = genesis.range
        self.predecessor = genesis.predecessor
        self.successor = genesis.successor
        self.status = GroupStatus.ACTIVE
        self.forwarding: tuple[GroupInfo, ...] = ()
        self.store = KvStore()
        self.store.absorb(genesis.kv)
        self.active_txn: TxnSpec | None = None
        self.frozen_since = -1.0
        self.completed_txns: set[str] = set()
        self.epoch = 0  # bumped by config changes and repartitions
        self.load = Counter()  # per-key op counts since the last policy window
        # Unboxed doubles: the newest 2,048 to 4,096 samples.
        self.commit_latencies = array("d")
        # Applied 2PC outcomes in apply order, for invariant checkers
        # (repro.check): each entry is (txn_id, "committed"|"aborted").
        # Dedup'd applies ("dup"/"ignored") are never recorded, so a
        # repeated txn_id here means the state machine really ran the
        # transition twice — an at-most-once violation.
        self.txn_log: list[tuple[str, str]] = []
        self.created_at = host.now
        storage_for = getattr(host, "replica_storage", None)
        storage = storage_for(self.gid) if storage_for is not None else None
        self.paxos = PaxosReplica(
            replica_id=host.node_id,
            members=list(genesis.members),
            transport=host.group_transport(genesis.gid),
            apply_fn=self._apply,
            config=paxos_config,
            initial_leader=genesis.initial_leader,
            snapshot_fn=self.snapshot,
            restore_fn=self.restore,
            storage=storage,
            reset_fn=self.reset_to_genesis,
            write_keys_fn=self._command_write_keys,
        )
        # repro.obs tracer shared with the Paxos replica (None = off).
        self.tracer = self.paxos.tracer
        self._freeze_span: Any = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        """True while this replica leads the group's Paxos instance."""
        return self.paxos.is_leader and not self.paxos.retired

    @property
    def members(self) -> list[str]:
        """Current voting membership (from the Paxos config)."""
        return list(self.paxos.members)

    def info(self) -> GroupInfo:
        """This replica's current view of its own group, for gossip."""
        leader = self.paxos.leader_hint or self.paxos.replica_id
        return GroupInfo(
            gid=self.gid,
            range=self.range,
            members=tuple(self.paxos.members),
            leader_hint=leader,
            epoch=self.epoch,
        )

    def owned_keys(self, arc: KeyRange | None = None) -> list[int]:
        """Stored keys inside ``arc`` (default: the whole owned range)."""
        arc = arc or self.range
        keys: list[int] = []
        for lo, hi in arc.intervals():
            keys.extend(self.store.keys_in(lo, hi))
        return keys

    # ------------------------------------------------------------------
    # Client operations (leader side)
    # ------------------------------------------------------------------
    def client_op(self, op: KvOp, dedup: tuple[str, int, int] | None = None) -> KvResult | Future:
        """Execute a linearizable storage operation.

        The hosting node has already checked that this replica is
        active and owns ``op.key``.  Reads go through the leader lease
        when it is live and are answered on the spot as a
        :class:`KvResult`; everything else is replicated through the log
        and returns a :class:`Future` of what :meth:`_apply_storage`
        returns when its slot applies.
        """
        self.load[op.key] += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.metrics.inc("group.ops")
            if op.op == OP_GET:
                tracer.metrics.inc("reads.leader")
        if op.op == OP_GET and self.paxos.config.lease_reads and self.paxos.lease_active:
            if tracer is not None:
                tracer.metrics.inc("group.lease_reads")
            return self.store.get(op.key)
        if tracer is not None:
            tracer.metrics.inc("group.log_ops")
        proposed = self.paxos.propose(Command(kind="app", payload=op, dedup=dedup))
        start = self.host.now
        proposed.add_callback(lambda f: self._note_commit_latency(start, f))
        return proposed

    def _note_commit_latency(self, start: float, future: Future) -> None:
        """Track replication (propose -> apply) latency at the leader."""
        if future.exception is None:
            latency = self.host.now - start
            self.commit_latencies.append(latency)
            if len(self.commit_latencies) > 4096:
                del self.commit_latencies[:2048]
            if self.tracer is not None:
                self.tracer.metrics.observe("group.commit_latency", latency)

    # ------------------------------------------------------------------
    # Client operations (follower side)
    # ------------------------------------------------------------------
    def follower_read(self, op: KvOp) -> KvResult | None:
        """Serve a Get locally at a follower, or ``None`` to bounce.

        The scale-out read path (``PaxosConfig.follower_reads``): a
        non-leader replica answers from its applied store state when the
        consensus layer proves the read linearizable — live read grant,
        applied prefix past the granted commit frontier, and no
        write in its own log above the applied prefix overlapping the
        key (see :meth:`PaxosReplica.follower_read_refusal`).  Anything
        else returns ``None`` and the node bounces the client to the
        leader, counted by reason.  Never proposes, never sends a
        message; with the knob off it returns ``None`` immediately.
        """
        paxos = self.paxos
        if not paxos.config.follower_reads or op.op != OP_GET:
            return None
        tracer = self.tracer
        refusal = paxos.follower_read_refusal(op.key)
        if refusal is not None:
            if tracer is not None:
                tracer.metrics.inc("reads.bounced")
                tracer.metrics.inc("reads.bounced." + refusal)
            return None
        if tracer is not None:
            tracer.metrics.inc("reads.follower")
            span = tracer.begin(
                GROUP_FOLLOWER_READ,
                gid=self.gid,
                replica=self.paxos.replica_id,
                key=op.key,
            )
            tracer.finish(span, outcome="served")
        return self.store.get(op.key)

    def _command_write_keys(self, command: Command) -> tuple[frozenset, bool]:
        """Classify a log command's write set for the conflict window.

        Returns ``(keys, wildcard)``: the keys the command writes, or a
        wildcard for commands that can touch arbitrary keys.  Storage
        mutations name their key; reads, no-ops, and membership changes
        write nothing; structural transaction records (freeze, split,
        merge, migrate) are wildcards — a follower that has not applied
        them yet must not serve any key they might move.
        """
        kind = command.kind
        if kind == "app":
            op = command.payload
            if op.op == OP_GET:
                return (_NO_KEYS, False)
            return (frozenset((op.key,)), False)
        if kind == CMD_BATCH:
            keys: set = set()
            for sub in command.payload:
                sub_keys, wildcard = self._command_write_keys(sub)
                if wildcard:
                    return (_NO_KEYS, True)
                keys |= sub_keys
            return (frozenset(keys), False)
        if kind in (CMD_READ, CMD_NOOP, CMD_CONFIG):
            return (_NO_KEYS, False)
        return (_NO_KEYS, True)  # txn_prepare / txn_commit / txn_abort

    # ------------------------------------------------------------------
    # Snapshots (log compaction and fast member bootstrap)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic image of all replicated group state.

        Everything the apply path mutates must be here: the store, the
        overlay metadata, and the transaction bookkeeping.  Volatile
        things (load counters, latency samples) are deliberately absent.
        """
        return {
            "store": self.store.snapshot(),
            "range": self.range,
            "predecessor": self.predecessor,
            "successor": self.successor,
            "status": self.status,
            "forwarding": self.forwarding,
            "active_txn": self.active_txn,
            "frozen_since": self.frozen_since,
            "completed_txns": set(self.completed_txns),
            "epoch": self.epoch,
        }

    def restore(self, snap: dict) -> None:
        """Reset to a ``snapshot()`` dict (snapshot install / catch-up)."""
        self.store = KvStore()
        self.store.absorb(snap["store"])
        self.range = snap["range"]
        self.predecessor = snap["predecessor"]
        self.successor = snap["successor"]
        self.status = snap["status"]
        self.forwarding = snap["forwarding"]
        self.active_txn = snap["active_txn"]
        self.frozen_since = snap["frozen_since"]
        self.completed_txns = set(snap["completed_txns"])
        self.epoch = snap.get("epoch", 0)
        if self.status is GroupStatus.RETIRED and self.forwarding:
            self.host.on_group_retired(self.gid, self.forwarding)

    def reset_to_genesis(self) -> None:
        """Forget all applied state, back to the group's genesis image.

        Called by the Paxos replica at the start of durable recovery:
        the state machine must be rebuilt purely from the recovered
        snapshot + replayed log, so everything :meth:`_apply` ever
        touched is reset to its constructor value first.
        """
        self.range = self.genesis.range
        self.predecessor = self.genesis.predecessor
        self.successor = self.genesis.successor
        self.status = GroupStatus.ACTIVE
        self.forwarding = ()
        self.store = KvStore()
        self.store.absorb(self.genesis.kv)
        self.active_txn = None
        self.frozen_since = -1.0
        self.completed_txns = set()
        self.epoch = 0
        self.txn_log = []
        self._freeze_span = None

    # ------------------------------------------------------------------
    # Apply (every replica, in log order)
    # ------------------------------------------------------------------
    def _apply(self, slot: int, command: Command) -> Any:
        if command.kind == "app":
            return self._apply_storage(command)
        if command.kind == "txn_prepare":
            return self._apply_prepare(command.payload)
        if command.kind == "txn_commit":
            return self._apply_commit(command.payload)
        if command.kind == "txn_abort":
            return self._apply_abort(command.payload)
        if command.kind == "read":
            return command.payload()
        if command.kind == "config":
            self.epoch += 1
        return None  # noop

    def _apply_storage(self, command: Command) -> KvResult | str:
        # A group that froze or retired between proposal and apply
        # refuses the op with the client status for it, and leaves the
        # store untouched: the retry applies once, here after the thaw
        # or at a successor.
        if self.status is GroupStatus.RETIRED:
            return "redirect"
        if self.status is GroupStatus.FROZEN:
            return "busy"
        return self.store.apply(command.payload, dedup=command.dedup)

    # -------------------------- prepare ------------------------------
    def _apply_prepare(self, spec: TxnSpec) -> tuple[str, Any]:
        if self.status is GroupStatus.RETIRED:
            return ("refused", "retired")
        if spec.txn_id in self.completed_txns:
            return ("refused", "already_completed")
        if self.active_txn is not None:
            if self.active_txn.txn_id == spec.txn_id:
                return ("prepared", self._prepare_data(spec))  # idempotent retry
            return ("refused", "locked")
        problem = self._validate(spec)
        if problem is not None:
            return ("refused", problem)
        self.active_txn = spec
        self.frozen_since = self.host.now
        if self._is_data_participant(spec):
            self.status = GroupStatus.FROZEN
            if self.tracer is not None:
                self._freeze_span = self.tracer.begin(
                    GROUP_FREEZE,
                    gid=self.gid,
                    node=self.host.node_id,
                    txn=spec.txn_id,
                    spec=type(spec).__name__,
                )
        return ("prepared", self._prepare_data(spec))

    def _is_data_participant(self, spec: TxnSpec) -> bool:
        """Does this transaction move this group's stored data?"""
        if isinstance(spec, SplitSpec):
            return spec.gid == self.gid
        if isinstance(spec, MergeSpec):
            return self.gid in (spec.left_gid, spec.right_gid)
        if isinstance(spec, RepartitionSpec):
            return self.gid in (spec.left_gid, spec.right_gid)
        return False  # migrate: membership only

    def _prepare_data(self, spec: TxnSpec) -> Any:
        """State snapshot this participant contributes to the commit."""
        if isinstance(spec, MergeSpec) and self.gid in (spec.left_gid, spec.right_gid):
            return self.store.snapshot()
        if isinstance(spec, RepartitionSpec) and self.gid == spec.donor_gid:
            return self.store.extract_copy(self.owned_keys(self._moving_arc(spec)))
        return None

    def _moving_arc(self, spec: RepartitionSpec) -> KeyRange:
        """The arc of keys that changes hands in a repartition."""
        if spec.donor_gid == spec.left_gid:
            # Boundary moves backwards: donor keeps [lo, new_boundary).
            return KeyRange(spec.new_boundary, self.range.hi)
        # Donor is the right group: it gives up [lo, new_boundary).
        return KeyRange(self.range.lo, spec.new_boundary)

    def _validate(self, spec: TxnSpec) -> str | None:
        """Role-specific sanity checks; a non-None return refuses prepare."""
        if isinstance(spec, SplitSpec):
            return self._validate_split(spec)
        if isinstance(spec, MergeSpec):
            return self._validate_merge(spec)
        if isinstance(spec, RepartitionSpec):
            return self._validate_repartition(spec)
        if isinstance(spec, MigrateSpec):
            return self._validate_migrate(spec)
        return f"unknown spec {type(spec).__name__}"

    def _validate_split(self, spec: SplitSpec) -> str | None:
        if spec.gid == self.gid:
            if set(spec.left.members) | set(spec.right.members) != set(self.paxos.members):
                return "membership_changed"
            if set(spec.left.members) & set(spec.right.members):
                return "overlapping_membership"
            if spec.split_key == self.range.lo or not self.range.contains(spec.split_key):
                return "bad_split_key"
            return None
        # Pointer participant: at least one of our pointers must still
        # reference the splitting group, or the spec was built from a
        # stale view of the ring.
        as_pred = (
            spec.pred_gid == self.gid
            and self.successor is not None
            and self.successor.gid == spec.gid
        )
        as_succ = spec.succ_gid == self.gid and self._pred_matches(spec.gid)
        if not (as_pred or as_succ):
            return "stale_pointer"
        return None

    def _pred_matches(self, gid: str) -> bool:
        return self.predecessor is not None and self.predecessor.gid == gid

    def _validate_merge(self, spec: MergeSpec) -> str | None:
        # A two-group ring merges into the full ring, which KeyRange
        # canonicalizes to (0, 0) regardless of where the boundary sat;
        # adjacency (checked below) already pins the structure, so the
        # endpoint equality checks only apply to partial-ring merges.
        full = spec.merged.range.is_full
        if self.gid == spec.left_gid:
            if self.successor is None or self.successor.gid != spec.right_gid:
                return "not_adjacent"
            if not full and spec.merged.range.lo != self.range.lo:
                return "range_mismatch"
        elif self.gid == spec.right_gid:
            if not self._pred_matches(spec.left_gid):
                return "not_adjacent"
            if not full and spec.merged.range.hi != self.range.hi:
                return "range_mismatch"
        return None

    def _validate_repartition(self, spec: RepartitionSpec) -> str | None:
        if self.gid == spec.left_gid and (
            self.successor is None or self.successor.gid != spec.right_gid
        ):
            return "not_adjacent"
        if self.gid == spec.right_gid and not self._pred_matches(spec.left_gid):
            return "not_adjacent"
        if self.gid == spec.donor_gid:
            arc = self._moving_arc(spec)
            if arc.size() == 0 or arc.size() >= self.range.size():
                return "bad_boundary"
            if not self.range.contains(spec.new_boundary):
                return "bad_boundary"
        return None

    def _validate_migrate(self, spec: MigrateSpec) -> str | None:
        if self.gid == spec.from_gid and spec.node not in self.paxos.members:
            return "not_a_member"
        if self.gid == spec.to_gid and spec.node in self.paxos.members:
            return "already_a_member"
        return None

    # -------------------------- commit -------------------------------
    def _apply_commit(self, cmd: TxnCommitCmd) -> tuple[str, Any]:
        spec = cmd.spec
        if spec.txn_id in self.completed_txns:
            return ("dup", None)
        if self.active_txn is None or self.active_txn.txn_id != spec.txn_id:
            # A commit can only be proposed after this group prepared (the
            # prepare is earlier in this same log), so this is a replayed
            # or misdirected record.
            return ("ignored", None)
        if isinstance(spec, SplitSpec):
            self._commit_split(spec)
        elif isinstance(spec, MergeSpec):
            self._commit_merge(spec, cmd.data)
        elif isinstance(spec, RepartitionSpec):
            self._commit_repartition(spec, cmd.data)
        elif isinstance(spec, MigrateSpec):
            self._commit_migrate(spec)
        self.completed_txns.add(spec.txn_id)
        self.active_txn = None
        if self.status is GroupStatus.FROZEN:
            self.status = GroupStatus.ACTIVE
        self._end_freeze_span("committed")
        self.txn_log.append((spec.txn_id, TxnDecision.COMMITTED.value))
        self.host.record_txn_outcome(spec.txn_id, TxnDecision.COMMITTED, cmd.data)
        return ("committed", None)

    def _commit_split(self, spec: SplitSpec) -> None:
        left_info = _plan_info(spec.left)
        right_info = _plan_info(spec.right)
        if spec.gid == self.gid:
            self._create_split_halves(spec, left_info, right_info)
            self._retire((left_info, right_info))
            return
        # Pointer-only participants.  In a two-group ring one neighbor
        # plays both roles, so these are independent ifs.
        if spec.pred_gid == self.gid and self.successor is not None and self.successor.gid == spec.gid:
            self.successor = left_info
        if spec.succ_gid == self.gid and self._pred_matches(spec.gid):
            self.predecessor = right_info

    def _create_split_halves(self, spec: SplitSpec, left_info: GroupInfo, right_info: GroupInfo) -> None:
        left_range, right_range = self.range.split_at(spec.split_key)
        # A split of the only group in the ring makes the halves each
        # other's predecessor and successor.
        outer_pred = self.predecessor if self.predecessor is not None else right_info
        outer_succ = self.successor if self.successor is not None else left_info
        plans = (
            (spec.left, left_range, outer_pred, right_info),
            (spec.right, right_range, left_info, outer_succ),
        )
        for plan, arc, pred, succ in plans:
            if self.host.node_id not in plan.members:
                continue
            kv = self.store.extract_copy(self.owned_keys(arc))
            self.host.create_group(
                GroupGenesis(
                    gid=plan.gid,
                    range=arc,
                    members=plan.members,
                    initial_leader=plan.initial_leader,
                    kv=kv,
                    predecessor=pred,
                    successor=succ,
                )
            )

    def _commit_merge(self, spec: MergeSpec, data: dict) -> None:
        merged_info = _plan_info(spec.merged)
        if self.gid in (spec.left_gid, spec.right_gid):
            if self.host.node_id in spec.merged.members:
                kv = RangeState()
                _absorb_into(kv, data.get("left_state"))
                _absorb_into(kv, data.get("right_state"))
                # In a two-group ring the merged group owns everything.
                two_ring = spec.outer_pred_gid in (None, spec.right_gid)
                self.host.create_group(
                    GroupGenesis(
                        gid=spec.merged.gid,
                        range=spec.merged.range,
                        members=spec.merged.members,
                        initial_leader=spec.merged.initial_leader,
                        kv=kv,
                        predecessor=None if two_ring else spec.outer_pred_info,
                        successor=None if two_ring else spec.outer_succ_info,
                    )
                )
            self._retire((merged_info,))
            return
        if spec.outer_pred_gid == self.gid and self.successor is not None and self.successor.gid == spec.left_gid:
            self.successor = merged_info
        if spec.outer_succ_gid == self.gid and self._pred_matches(spec.right_gid):
            self.predecessor = merged_info

    def _commit_repartition(self, spec: RepartitionSpec, data: dict) -> None:
        moving = data.get("moving_state") or RangeState()
        i_am_left = self.gid == spec.left_gid
        if self.gid == spec.donor_gid:
            self.store.extract(list(moving.cells))
            new_range = (
                KeyRange(self.range.lo, spec.new_boundary)
                if i_am_left
                else KeyRange(spec.new_boundary, self.range.hi)
            )
        else:
            self.store.absorb(moving)
            new_range = (
                KeyRange(self.range.lo, spec.new_boundary)
                if i_am_left
                else KeyRange(spec.new_boundary, self.range.hi)
            )
        self.range = new_range
        self.epoch += 1
        # Refresh the cached range in every pointer referencing the
        # partner — in a two-group ring it is both our successor and our
        # predecessor.
        partner_gid = spec.right_gid if i_am_left else spec.left_gid
        if i_am_left:
            if self.successor is not None and self.successor.gid == partner_gid:
                self.successor = self.successor.with_range(
                    KeyRange(spec.new_boundary, self.successor.range.hi)
                )
            if self.predecessor is not None and self.predecessor.gid == partner_gid:
                self.predecessor = self.predecessor.with_range(
                    KeyRange(spec.new_boundary, self.predecessor.range.hi)
                )
        else:
            if self.predecessor is not None and self.predecessor.gid == partner_gid:
                self.predecessor = self.predecessor.with_range(
                    KeyRange(self.predecessor.range.lo, spec.new_boundary)
                )
            if self.successor is not None and self.successor.gid == partner_gid:
                self.successor = self.successor.with_range(
                    KeyRange(self.successor.range.lo, spec.new_boundary)
                )

    def _commit_migrate(self, spec: MigrateSpec) -> None:
        # Membership edits are ordinary config changes issued by the
        # leader after the commit applies; the transaction's job was the
        # mutual exclusion against splits/merges.
        if self.paxos.is_leader:
            self.host.after_migrate_commit(spec, self.gid)

    def _retire(self, forwarding: tuple[GroupInfo, ...]) -> None:
        self.status = GroupStatus.RETIRED
        self.forwarding = forwarding
        self.host.on_group_retired(self.gid, forwarding)

    # -------------------------- abort --------------------------------
    def _apply_abort(self, cmd: TxnAbortCmd) -> tuple[str, Any]:
        spec = cmd.spec
        if spec.txn_id in self.completed_txns:
            return ("dup", None)
        self.completed_txns.add(spec.txn_id)
        self.txn_log.append((spec.txn_id, TxnDecision.ABORTED.value))
        self.host.record_txn_outcome(spec.txn_id, TxnDecision.ABORTED, {})
        if self.active_txn is not None and self.active_txn.txn_id == spec.txn_id:
            self.active_txn = None
            if self.status is GroupStatus.FROZEN:
                self.status = GroupStatus.ACTIVE
            self._end_freeze_span("aborted")
        return ("aborted", None)

    def _end_freeze_span(self, outcome: str) -> None:
        """Close the open freeze-window span, if tracing recorded one."""
        span = self._freeze_span
        if span is not None:
            self._freeze_span = None
            if span.open:
                self.tracer.finish(span, outcome=outcome)


def _plan_info(plan) -> GroupInfo:
    return GroupInfo(
        gid=plan.gid,
        range=plan.range,
        members=plan.members,
        leader_hint=plan.initial_leader,
    )


def _absorb_into(target: RangeState, source: RangeState | None) -> None:
    if source is None:
        return
    target.cells.update(source.cells)
    merge_sessions(target.sessions, source.sessions)
