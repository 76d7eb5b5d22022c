"""Leader-based Multi-Paxos replica with leases and reconfiguration.

One ``PaxosReplica`` is one member of one group's replicated state
machine.  The protocol follows the classic Multi-Paxos structure:

- **Leader election**: followers that miss heartbeats for a randomized
  election timeout run phase 1 (Prepare) over all slots above their
  commit index.  Ballot numbers are (round, replica_id) pairs.
- **Replication**: the leader assigns commands to slots and runs phase 2
  (Accept/Accepted) with its peers while taking the acceptor step
  itself, locally and in parallel; a slot is chosen once a majority of
  the current configuration — the leader's own durable record plus
  peer acks — accepts it.  Chosen slots are applied in order.  An
  ``Accept`` carries one slot and an ``Accepted`` acks it once it is
  journaled.  The leader sends each slot's ``Accept`` as the slot is
  issued and retransmits per slot; there is one acceptor step
  (``_accept``) and one ack count (``_count_acks``) for a peer's vote
  and the leader's own.
- **Leases**: the leader renews a read lease with each heartbeat round
  that a majority acknowledges; while the lease is live (and the leader
  has committed a no-op in its own ballot — the read barrier) reads are
  served locally without a log round trip.  The simulator has no clock
  skew, and acceptors refuse to promise to a new candidate while the
  lease they granted is live, so lease reads are linearizable.  Rounds
  go every ``heartbeat_interval`` while the leader has work.  A
  quiescent one (nothing pending, queued or backlogged, no commit since
  the last round, no follower reads) whose last round every member
  acked skips ahead and renews every ``lease_duration -
  heartbeat_interval``, still a full interval before its lease lapses;
  a commit during the wait sends the round at once.
- **Reconfiguration**: membership changes are commands in the log,
  restricted to one added or removed member per command, so consecutive
  configurations always have intersecting majorities.  The leader stalls
  proposals past an in-flight configuration change (the *barrier*) so
  every slot's quorum is evaluated under the configuration in effect for
  that slot.

Durability model: by default the replica object *is* the durable state
(promised ballot, log, applied index); a host crash suppresses timers
and message handling, and :meth:`on_host_restart` resets only volatile
leadership state, mirroring a process that recovers its disk perfectly
but forgets its role.  When a :class:`repro.storage` region is attached
(``storage=`` constructor argument), durability is modelled for real:
promises and accepts are journaled to a write-ahead log and acked only
from the completion of an fsync that covers them (the node disk runs
one fsync at a time, see :meth:`repro.storage.disk.NodeDisk.enqueue_fsync`;
without a region the ack is immediate), choices are journaled lazily,
snapshots compact the WAL, and :meth:`on_host_restart` rebuilds all
acceptor and application state from the snapshot plus the fsynced WAL
suffix — anything the crash lost (power-failure semantics) is recovered
through ordinary catch-up.  A replica whose disk was lost or detected
corrupt recovers *amnesiac*: a non-voting learner until it has caught
up to everything the leader had committed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.consensus.commands import CMD_BATCH, CMD_CONFIG, Command, ConfigChange
from repro.consensus.log import PaxosLog
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
from repro.consensus.single import BALLOT_ZERO, Ballot
from repro.consensus.transport import Transport
from repro.net.futures import Future
from repro.net.retry import decorrelated_jitter
from repro.obs.spans import PAXOS_ELECTION, PAXOS_SLOT
from repro.storage.disk import (
    REC_ACCEPT,
    REC_CHOSEN,
    REC_PROMISE,
    ReplicaStorage,
    command_label,
)


class NotLeader(Exception):
    """The contacted replica is not the group leader."""

    def __init__(self, leader_hint: str | None) -> None:
        super().__init__(f"not leader (hint: {leader_hint})")
        self.leader_hint = leader_hint


class ProposalLost(Exception):
    """Leadership was lost with the proposal in flight; outcome unknown."""


@dataclass(frozen=True)
class PaxosConfig:
    """Protocol timing knobs (seconds of virtual time)."""

    heartbeat_interval: float = 0.25
    election_timeout: float = 1.0
    lease_duration: float = 0.8
    lease_reads: bool = True
    retry_interval: float = 0.5
    # Ceiling for the decorrelated-jitter backoff on Accept
    # retransmissions: consecutive unfruitful retry rounds grow from
    # retry_interval toward retry_cap, and any commit progress resets the
    # delay.  Keeps stalled leaders from retrying in lockstep under fault
    # storms without slowing the first retransmission.
    retry_cap: float = 2.0
    # Compact the log once this many applied entries accumulate beyond
    # the last snapshot; 0 disables compaction.  Compaction also needs a
    # snapshot_fn, so replicas built without one are unaffected.  The
    # default keeps standard deployments from growing unbounded logs
    # while staying out of the way of short unit-test runs.
    compact_threshold: int = 512
    # Batch concurrently proposed app commands into one log slot: fewer
    # Paxos rounds per operation under bursty load.  batch_max caps
    # commands per slot, and 1 turns batching off; batch_window is how
    # long the leader waits to coalesce (0 batches only same-instant
    # proposals).
    batch_window: float = 0.002
    batch_max: int = 1
    # Pipeline flow control: bound on in-flight unchosen slots at the
    # leader.  Proposals beyond the window wait in the admission queue
    # and are issued as commits drain, so bursty load fills the pipe
    # instead of growing unbounded retry state (retry ticks scan only
    # the bounded in-flight window).  1 is stop-and-wait.
    pipeline_depth: int = 8
    # Linearizable follower reads (scale-out read path).  The leader
    # piggybacks per-member read grants plus its commit frontier on
    # heartbeats; a granted follower serves a read locally when its
    # applied prefix covers the frontier and no write in its own log
    # above that prefix overlaps the key, else it bounces to the leader.
    # Safety rests on quorum expansion: while a member's grant is live
    # the leader will not choose any write that member has not
    # accepted (see docs/PROTOCOLS.md, "Life of a read").  Off by
    # default; defaults are byte-identical to the leader-only path.
    follower_reads: bool = False

    def __post_init__(self) -> None:
        if self.lease_duration >= self.election_timeout:
            raise ValueError("lease_duration must be < election_timeout")
        if self.heartbeat_interval >= self.lease_duration:
            raise ValueError("heartbeat_interval must be < lease_duration")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")


@dataclass
class _PendingSlot:
    command: Command
    acks: set[str] = field(default_factory=set)
    # Open repro.obs span covering this slot's accept round(s); None when
    # tracing is off.
    span: Any = None
    # Does the command write any key?  Only computed (and consulted)
    # with follower reads on: write-bearing slots are chosen under the
    # expanded quorum (majority plus every live read grantee).
    write: bool = False
    # The leader journaled its own accept since the last retry tick, so
    # the covering fsync may still be pending: that tick skips its vote.
    own_wal: bool = False


# Shared empty key set for write classifiers and conflict windows.
_NO_KEYS: frozenset = frozenset()

# Chosen entries per CatchupReply; a lagging peer asks again for the rest.
CATCHUP_BATCH = 200

# An empty admission queue or backlog: a deque costs 760 bytes before
# its first item, and most replicas never queue, so one is built only
# when something waits.
_IDLE: tuple = ()


class PaxosReplica:
    """One member of a Multi-Paxos group."""

    # Fifty attributes are past the key limit of CPython's shared
    # instance dicts, so without slots every replica would carry a dict
    # of its own (1,584 bytes on 3.11).
    __slots__ = (
        "replica_id", "members", "transport", "apply_fn", "snapshot_fn", "restore_fn", "config",
        "_snapshot", "storage", "reset_fn", "_initial_members", "amnesiac", "_amnesia_target",
        "tracer", "_election_span", "promised", "log", "applied_index", "leader_hint",
        "last_leader_contact", "retired", "_last_catchup_request", "is_leader", "ballot",
        "_max_round_seen", "_pending", "_proposal_futures", "_queue", "_next_slot",
        "_barrier_slot", "_read_barrier_slot", "_lease_until", "_hb_acks", "_hb_sent",
        "_hb_heard", "_hb_commit_index", "_hb_stretch", "member_last_ack", "_retry_delay",
        "_batch_buffer", "_batch_flush_timer", "write_keys_fn", "_grants",
        "_fr_grant_until", "_fr_frontier", "_campaigning", "_campaign_promises",
        "_campaign_from_slot", "_backlog",
    )

    def __init__(
        self,
        replica_id: str,
        members: list[str],
        transport: Transport,
        apply_fn: Callable[[int, Command], Any],
        config: PaxosConfig | None = None,
        initial_leader: str | None = None,
        snapshot_fn: Callable[[], Any] | None = None,
        restore_fn: Callable[[Any], None] | None = None,
        storage: ReplicaStorage | None = None,
        reset_fn: Callable[[], None] | None = None,
        write_keys_fn: Callable[[Command], tuple[frozenset, bool]] | None = None,
    ) -> None:
        # A replica whose id is not (yet) in ``members`` is a *learner*:
        # it accepts and applies but never campaigns.  This is how a
        # freshly joined node bootstraps — it replays the log from the
        # group's genesis membership and becomes a voter once the config
        # change that added it applies.
        self.replica_id = replica_id
        self.members = list(members)
        self.transport = transport
        self.apply_fn = apply_fn
        self.snapshot_fn = snapshot_fn
        self.restore_fn = restore_fn
        self.config = config or PaxosConfig()
        self._snapshot: Any = None  # latest compacted state
        # Durable-storage model (None = the perfect-durability fiction).
        # ``reset_fn`` resets the application state machine to its
        # genesis image so recovery can re-derive it by replay.
        self.storage = storage
        self.reset_fn = reset_fn
        self._initial_members = list(members)
        # Amnesia: the disk was lost or found corrupt at recovery.  An
        # amnesiac replica never votes (no Promise, no Accepted, no
        # HeartbeatAck, no campaigns) until it has applied everything
        # the leader had committed — see _on_message_amnesiac.
        self.amnesiac = False
        self._amnesia_target: int | None = None
        # repro.obs tracer, if the transport's simulator has one bound
        # (None otherwise — the disabled fast path).
        self.tracer = getattr(transport, "tracer", None)
        self._election_span: Any = None

        # Acceptor state (durable).
        self.promised: Ballot = BALLOT_ZERO
        self.log = PaxosLog()
        self.applied_index = -1
        if storage is not None:
            self.log.observer = self._wal_note_chosen

        # Learner / follower state.
        self.leader_hint: str | None = initial_leader
        self.last_leader_contact = transport.now
        self.retired = False
        # Per-peer catch-up throttle: asking one (possibly dead) peer
        # must not suppress asking a healthy one.
        self._last_catchup_request: dict[str, float] = {}

        # Leader state (volatile).
        self.is_leader = False
        self.ballot: Ballot = BALLOT_ZERO
        self._max_round_seen = 0
        self._pending: dict[int, _PendingSlot] = {}
        self._proposal_futures: dict[int, Future] = {}
        self._queue: deque[tuple[Command, Future]] | tuple = _IDLE
        self._next_slot = 0
        self._barrier_slot: int | None = None
        self._read_barrier_slot: int | None = None
        self._lease_until = -1.0
        self._hb_acks: dict[float, set[str]] = {}
        # The last heartbeat round: its send time, the members that
        # acked it and the commit index it carried.  The tick after it
        # skips to a stretched round only if all of them are unchanged
        # and complete (see _heartbeat_tick); ``_hb_stretch`` is that
        # round's timer while it is pending.
        self._hb_sent = -1.0
        self._hb_heard: set[str] = set()
        self._hb_commit_index = -1
        self._hb_stretch: Any = None
        self.member_last_ack: dict[str, float] = {}
        self._retry_delay: float | None = None

        # Batching state (leader only).
        self._batch_buffer: list[tuple[Command, Future]] = []
        self._batch_flush_timer: Any = None

        # Follower reads.  ``write_keys_fn`` classifies a command's
        # write set as ``(keys, wildcard)``; without one every command
        # is conservatively a wildcard write.  Leader side: ``_grants``
        # maps member -> read-grant expiry (the quorum-expansion
        # obligation).  Follower side (``_fr_*``): the grant and
        # commit frontier from the last granting heartbeat.  All
        # volatile; empty/inert while ``config.follower_reads`` is off.
        self.write_keys_fn = write_keys_fn
        self._grants: dict[str, float] = {}
        self._fr_grant_until = -1.0
        self._fr_frontier = -1

        # Campaign state.
        self._campaigning = False
        self._campaign_promises: dict[str, Promise] = {}
        self._campaign_from_slot = 0
        self._backlog: deque[tuple[int, Command]] | tuple = _IDLE

        self._start_timers(initial_leader == replica_id)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _start_timers(self, lead_now: bool) -> None:
        if lead_now:
            self.transport.set_timer(0.0, self._start_campaign)
        self._schedule_election_check()

    def on_host_restart(self) -> None:
        """Host recovered from a crash.

        Without a storage region the replica object is the durable
        state, so only volatile leadership is forgotten.  With one,
        recovery is real: acceptor and application state are rebuilt
        from the last snapshot plus the fsynced WAL suffix.
        """
        self._reset_leader_state(fail_with=ProposalLost("host restarted"))
        self._end_election_span("aborted")
        self._campaigning = False
        self._reset_follower_read_state()
        if self.storage is not None:
            self._recover_from_storage()
        self.last_leader_contact = self.transport.now
        self._schedule_election_check()

    # ------------------------------------------------------------------
    # Durable storage: write path and recovery
    # ------------------------------------------------------------------
    def _wal_note_chosen(self, slot: int, value: Any) -> None:
        """PaxosLog observer: lazily journal choices (no fsync barrier)."""
        self.storage.append_chosen(slot, value)

    def _persist_promise(self, ballot: Ballot) -> bool:
        """Journal a promise before acking it.  A demo bug patches this
        to skip the append — the acked-but-not-durable bug the
        ``acceptor-durability`` invariant exists to catch."""
        return self.storage.append_promise(ballot)

    def _fsync_then_promise(self, dst: str, msg: Promise) -> None:
        """Ack only once an fsync covering the journaled promise completes.

        The disk's timer is crash-guarded, so a crash before then means
        no ack was sent — consistent with the un-fsynced record being
        lost to the power failure.
        """
        storage = self.storage

        def on_durable() -> None:
            storage.note_acked_promise(msg.ballot)
            self.transport.send(dst, msg)

        storage.disk.enqueue_fsync(storage, on_durable)

    def _recover_from_storage(self) -> None:
        """Rebuild all state from disk: snapshot, then WAL replay.

        Promise and accept records restore the acceptor's obligations;
        chosen records restore the committed prefix, and re-applying it
        (via ``apply_fn``) re-derives the application state machine from
        the genesis image ``reset_fn`` restored.  A wiped or corrupt
        region instead enters amnesia with empty state.
        """
        storage = self.storage
        acked_promise = storage.acked_promise
        acked_accepts = dict(storage.acked_accepts)
        snapshot, records = storage.recovery_image()

        self.promised = storage.durable_promise
        self.log = PaxosLog()
        self.applied_index = -1
        self.members = list(self._initial_members)
        self.ballot = BALLOT_ZERO
        self._max_round_seen = 0
        self._next_slot = 0
        if self.reset_fn is not None:
            self.reset_fn()
        if snapshot is not None:
            state, last_included, members = snapshot
            if self.restore_fn is not None:
                self.restore_fn(state)
            self._snapshot = state
            self.applied_index = last_included
            self.members = list(members)
            self.log.reset_to(last_included + 1)
        for record in records:
            if record.kind == REC_PROMISE:
                if record.ballot > self.promised:
                    self.promised = record.ballot
            elif record.kind == REC_ACCEPT:
                # Accepting at a ballot implies having promised it.
                if record.ballot > self.promised:
                    self.promised = record.ballot
                if record.slot >= self.log.first_slot and not self.log.is_chosen(record.slot):
                    entry = self.log.entry(record.slot)
                    if entry.accepted_ballot is None or record.ballot >= entry.accepted_ballot:
                        entry.accepted_ballot = record.ballot
                        entry.accepted_value = record.value
            elif record.kind == REC_CHOSEN:
                self.log.mark_chosen(record.slot, record.value)
        self.log.observer = self._wal_note_chosen
        self._note_ballot(self.promised)
        self.amnesiac = storage.amnesiac
        self._amnesia_target = None
        if not self.amnesiac:
            self._check_durability(acked_promise, acked_accepts)
        self._apply_committed()

    def _check_durability(
        self, acked_promise: Ballot, acked_accepts: dict[int, tuple[Ballot, str]]
    ) -> None:
        """Compare recovered state against the acked ledger (checker aid).

        A breach here is definitive evidence the replica reneged on
        something it acked before the crash; it is recorded on the
        storage region, where the ``acceptor-durability`` invariant
        reports it.  Never consulted by the protocol.
        """
        storage = self.storage
        if acked_promise > self.promised:
            storage.reneged.append(
                f"{self.replica_id}/{storage.gid}: recovered promised "
                f"{self.promised} below acked promise {acked_promise}"
            )
        for slot, (ballot, label) in sorted(acked_accepts.items()):
            if slot <= self.applied_index:
                continue  # covered by the snapshot image
            entry = self.log.get(slot)
            intact = entry is not None and (
                entry.chosen
                or (
                    entry.accepted_ballot is not None
                    and (
                        entry.accepted_ballot > ballot
                        or (
                            entry.accepted_ballot == ballot
                            and command_label(entry.accepted_value) == label
                        )
                    )
                )
            )
            if not intact:
                storage.reneged.append(
                    f"{self.replica_id}/{storage.gid}: slot {slot} acked accept "
                    f"at {ballot} ({label}) missing after recovery"
                )

    def _on_message_amnesiac(self, src: str, msg: Any) -> None:
        """Learner-only processing for a replica that lost its disk.

        It never votes — no Promise, no Accepted, and no HeartbeatAck
        (an amnesiac ack must not help extend a lease, because the
        forgotten promises may be exactly what made that lease stale).
        It tracks the leader, pulls the log through catch-up, and
        becomes a voter again once it has applied everything the leader
        had committed when contact was re-established.
        """
        kind = type(msg)
        if kind in (Heartbeat, Accept):
            self._note_ballot(msg.ballot)
            self.leader_hint = src
            self.last_leader_contact = self.transport.now
            target = self._amnesia_target
            if target is None or msg.commit_index > target:
                self._amnesia_target = msg.commit_index
            if msg.commit_index > self.log.commit_index:
                self._request_catchup(src)
        elif kind is CatchupReply:
            self._on_catchup_reply(src, msg)
        elif kind is InstallSnapshot:
            self._on_install_snapshot(src, msg)
        elif kind is NotMember:
            self.retire()
            return
        self._maybe_end_amnesia()

    def _maybe_end_amnesia(self) -> None:
        if self._amnesia_target is None or self.applied_index < self._amnesia_target:
            return
        self.amnesiac = False
        self._amnesia_target = None
        self.storage.clear_amnesia()
        # Snapshot the caught-up state so the next crash does not have
        # to repeat the full catch-up from genesis.
        if self.snapshot_fn is not None and self.applied_index >= 0:
            self._snapshot = self.snapshot_fn()
            self.storage.save_snapshot(
                self._snapshot, self.applied_index, tuple(self.members)
            )
        self.last_leader_contact = self.transport.now

    def _end_election_span(self, outcome: str) -> None:
        """Close the open election span, recording how the campaign ended."""
        span = self._election_span
        if span is not None:
            self._election_span = None
            self.tracer.finish(span, outcome=outcome)

    def _fail_pending_spans(self, outcome: str) -> None:
        """Close spans of in-flight slots that will never reach a quorum here."""
        tracer = self.tracer
        if tracer is None:
            return
        for pending in self._pending.values():
            if pending.span is not None and pending.span.open:
                tracer.finish(pending.span, outcome=outcome)

    def _reset_leader_state(self, fail_with: Exception) -> None:
        self._fail_pending_spans("lost")
        self.is_leader = False
        self._barrier_slot = None
        self._read_barrier_slot = None
        self._lease_until = -1.0
        self._hb_acks.clear()
        self._hb_heard.clear()
        if self._hb_stretch is not None:
            self._hb_stretch.cancel()
            self._hb_stretch = None
        self._retry_delay = None
        self._backlog = _IDLE
        for future in self._proposal_futures.values():
            future.set_exception(fail_with)
        self._proposal_futures.clear()
        self._pending.clear()
        for _command, future in self._queue:
            future.set_exception(fail_with)
        self._queue = _IDLE
        for _command, future in self._batch_buffer:
            future.set_exception(fail_with)
        self._batch_buffer.clear()
        timer = self._batch_flush_timer
        if timer is not None:
            self._batch_flush_timer = None
            timer.cancel()
        self._grants.clear()

    def _reset_follower_read_state(self) -> None:
        """Drop the local read grant and frontier (all volatile)."""
        self._fr_grant_until = -1.0
        self._fr_frontier = -1

    def retire(self) -> None:
        """Leave the group permanently (removed by reconfiguration)."""
        if self.retired:
            return
        self.retired = True
        self._reset_leader_state(fail_with=NotLeader(self.leader_hint))
        self._end_election_span("retired")
        self._campaigning = False
        self._reset_follower_read_state()

    # ------------------------------------------------------------------
    # Public API (called by the group layer on this replica's host)
    # ------------------------------------------------------------------
    def propose(self, command: Command) -> Future:
        """Replicate ``command``; resolves with the local apply result.

        Fails with :class:`NotLeader` if this replica does not lead, or
        :class:`ProposalLost` if leadership is lost while in flight (the
        command may or may not have been chosen — callers retry with a
        dedup key).
        """
        future = Future()
        if self.retired or not self.is_leader:
            future.set_exception(NotLeader(self.leader_hint))
            return future
        if self.config.batch_max > 1 and command.kind == "app":
            self._batch_buffer.append((command, future))
            if len(self._batch_buffer) >= self.config.batch_max:
                self._flush_batch()
            elif self._batch_flush_timer is None:
                self._batch_flush_timer = self.transport.set_timer(
                    self.config.batch_window, self._flush_batch
                )
            return future
        # Non-batchable commands must not overtake buffered ones.
        self._flush_batch()
        if self._barrier_slot is not None or self._backlog or self._pipe_full():
            self._enqueue(command, future)
            return future
        self._issue(command, future)
        return future

    def _flush_batch(self) -> None:
        timer = self._batch_flush_timer
        if timer is not None:
            # batch_max (or a non-batchable command) forced an early
            # flush: cancel the pending window timer instead of letting
            # it fire as a wasted hot-path event that could also flush a
            # *later* batch before its window.  Cancel-after-fire (the
            # timer itself called us) is a no-op.
            self._batch_flush_timer = None
            timer.cancel()
        if not self._batch_buffer:
            return
        buffered, self._batch_buffer = self._batch_buffer, []
        if not self.is_leader or self.retired:
            for _c, fut in buffered:
                fut.set_exception(NotLeader(self.leader_hint))
            return
        if len(buffered) == 1:
            command, future = buffered[0]
        else:
            command = Command(
                kind=CMD_BATCH, payload=tuple(c for c, _f in buffered)
            )
            future = Future()
            subs = [f for _c, f in buffered]

            def distribute(f: Future) -> None:
                if f.exception is not None:
                    for sub in subs:
                        sub.set_exception(f.exception)
                    return
                for sub, result in zip(subs, f.result()):
                    sub.set_result(result)

            future.add_callback(distribute)
        if self._barrier_slot is not None or self._backlog or self._pipe_full():
            self._enqueue(command, future)
        else:
            self._issue(command, future)

    def read(self, query: Callable[[], Any]) -> Future:
        """Linearizable read.

        Under a live lease (and past the read barrier) the query runs
        locally; otherwise it is replicated as a log entry, which gives
        the lease-off ablation its cost.
        """
        future = Future()
        if self.retired or not self.is_leader:
            future.set_exception(NotLeader(self.leader_hint))
            return future
        if self.config.lease_reads and self._lease_valid():
            future.set_result(query())
            return future
        read_future = self.propose(Command(kind="read", payload=query))
        read_future.add_callback(
            lambda f: future.set_exception(f.exception)
            if f.exception
            else future.set_result(f.result())
        )
        return future

    def _lease_valid(self) -> bool:
        if self._read_barrier_slot is None or self.applied_index < self._read_barrier_slot:
            return False
        return self.transport.now < self._lease_until

    @property
    def lease_active(self) -> bool:
        return self.is_leader and self._lease_valid()

    def follower_read_refusal(self, key: Any) -> str | None:
        """Why this replica cannot serve a linearizable read of ``key``.

        ``None`` means it can.  Otherwise the first failed serve
        condition (docs/PROTOCOLS.md, "Life of a read"): ``"grant"`` —
        follower reads are off, this is not an ordinary follower
        (leader, retired, or amnesiac), or the leader's read grant is
        not live; ``"frontier"`` — the applied prefix does not cover
        the granted commit frontier; ``"window"`` — a write accepted
        locally above the applied prefix overlaps the key.  Any refusal
        means *bounce to the leader*, never a wrong answer.
        """
        if (
            not self.config.follower_reads
            or self.is_leader
            or self.retired
            or self.amnesiac
            or self.transport.now >= self._fr_grant_until
        ):
            return "grant"
        if self.applied_index < self._fr_frontier:
            return "frontier"
        if not self._fr_conflict_free(key):
            return "window"
        return None

    def follower_read_allowed(self, key: Any) -> bool:
        """Can this replica serve a linearizable read of ``key`` locally?"""
        return self.follower_read_refusal(key) is None

    def _fr_conflict_free(self, key: Any) -> bool:
        """The conflict-window check: does no in-flight write cover ``key``?

        The window is every accepted-or-chosen entry in slots
        ``(applied_index, top]`` of our own log: quorum expansion
        guarantees any write that commits while our grant is live was
        accepted here first, so a clean window proves the applied prefix
        is read-current.  O(window), whatever the log retains below it.
        The ``stale-follower-read`` demo bug patches this method out.
        """
        for value in self.log.pending_values(self.applied_index + 1):
            keys, wildcard = self._command_writes(value)
            if wildcard or key in keys:
                return False
        return True

    def _command_writes(self, command: Command) -> tuple[frozenset, bool]:
        """``(keys, wildcard)`` the command may write, via ``write_keys_fn``.

        Without a classifier every command is conservatively a wildcard
        write, so consensus-only deployments stay safe (follower reads
        bounce whenever anything is in flight).
        """
        fn = self.write_keys_fn
        if fn is None:
            return (_NO_KEYS, True)
        return fn(command)

    def leadership_view(self) -> dict:
        """Read-only leadership snapshot for invariant checkers.

        Used by ``repro.check`` to assert at most one leader (and one
        live lease) per group per ballot; safe to call at any time and
        never mutates replica state.
        """
        return {
            "is_leader": self.is_leader,
            "ballot": self.ballot,
            "lease_active": self.lease_active,
            "commit_index": self.log.commit_index,
            "retired": self.retired,
        }

    def transfer_leadership(self, target: str) -> bool:
        """Hand leadership to ``target`` if this replica is idle.

        Returns False (and does nothing) unless this replica leads, the
        target is a member, and no proposals are in flight — a transfer
        mid-stream would fail them needlessly.
        """
        if (
            not self.is_leader
            or self.retired
            or target == self.replica_id
            or target not in self.members
            or self._pending
            or self._queue
            or self._backlog
            or self._barrier_slot is not None
        ):
            return False
        self._send_peers(TransferLease(ballot=self.ballot, target=target))
        self.leader_hint = target
        self._reset_leader_state(fail_with=NotLeader(target))
        self.last_leader_contact = self.transport.now
        return True

    def _on_transfer_lease(self, src: str, msg: TransferLease) -> None:
        if msg.ballot < self.promised or src == self.replica_id:
            return
        self.leader_hint = msg.target
        self.last_leader_contact = self.transport.now
        if msg.target == self.replica_id and not self.is_leader:
            self.transport.set_timer(0.0, self._start_campaign)

    def suspected_members(self, dead_after: float) -> list[str]:
        """Members the leader has not heard from for ``dead_after`` seconds."""
        if not self.is_leader:
            return []
        now = self.transport.now
        out = []
        for member in self.members:
            if member == self.replica_id:
                continue
            last = self.member_last_ack.get(member, self.last_leader_contact)
            if now - last > dead_after:
                out.append(member)
        return out

    # ------------------------------------------------------------------
    # Message entry point
    # ------------------------------------------------------------------
    def on_message(self, src: str, msg: Any) -> None:
        if self.retired:
            return
        if self.amnesiac:
            self._on_message_amnesiac(src, msg)
            return
        handler = self._HANDLERS.get(type(msg))
        if handler is not None:
            handler(self, src, msg)

    def _note_ballot(self, ballot: Ballot) -> None:
        if ballot[0] > self._max_round_seen:
            self._max_round_seen = ballot[0]

    # ------------------------------------------------------------------
    # Election
    # ------------------------------------------------------------------
    def _schedule_election_check(self) -> None:
        jitter = self.transport.rng().uniform(1.0, 2.0)
        self.transport.set_timer(self.config.election_timeout * jitter, self._election_check)

    def _election_check(self) -> None:
        if self.retired:
            return
        idle = self.transport.now - self.last_leader_contact
        if not self.is_leader and not self._campaigning and idle >= self.config.election_timeout:
            self._start_campaign()
        self._schedule_election_check()

    def _start_campaign(self) -> None:
        if self.retired or self.amnesiac or self.replica_id not in self.members:
            return
        self._campaigning = True
        self._campaign_promises = {}
        round_num = max(self._max_round_seen, self.promised[0], self.ballot[0]) + 1
        self.ballot = (round_num, self.replica_id)
        if self.tracer is not None:
            self._end_election_span("superseded")
            self.tracer.metrics.inc("paxos.elections")
            self._election_span = self.tracer.begin(
                PAXOS_ELECTION, replica=self.replica_id, round=round_num
            )
        self._note_ballot(self.ballot)
        self._campaign_from_slot = self.log.commit_index + 1
        prepare = Prepare(ballot=self.ballot, from_slot=self._campaign_from_slot)
        for member in self.members:
            self.transport.send(member, prepare)
        # If the campaign stalls (lost messages, no quorum) the election
        # check will eventually fire again and start a fresh ballot.
        self.transport.set_timer(self.config.election_timeout, self._campaign_timeout, self.ballot)

    def _campaign_timeout(self, ballot: Ballot) -> None:
        if self._campaigning and self.ballot == ballot and not self.is_leader:
            self._campaigning = False
            self._end_election_span("timeout")

    def _on_prepare(self, src: str, msg: Prepare) -> None:
        self._note_ballot(msg.ballot)
        if src not in self.members:
            # Either src was removed, or we are lagging.  Config changes
            # are single-member and never re-add within a group, so an
            # applied config excluding src is authoritative.
            self.transport.send(src, NotMember(commit_index=self.log.commit_index))
            return
        # Lease guard: refuse to abandon a leader whose lease is live.
        lease_live = (
            self.leader_hint is not None
            and src != self.leader_hint
            and self.transport.now < self.last_leader_contact + self.config.lease_duration
        )
        if lease_live:
            self.transport.send(
                src, PrepareNack(msg.ballot, self.promised, lease_holder=self.leader_hint)
            )
            return
        if msg.ballot <= self.promised:
            self.transport.send(src, PrepareNack(msg.ballot, self.promised))
            return
        self.promised = msg.ballot
        accepted = tuple(self.log.accepted_from(msg.from_slot))
        reply = Promise(
            ballot=msg.ballot,
            from_slot=msg.from_slot,
            accepted=accepted,
            commit_index=self.log.commit_index,
        )
        if self.storage is not None:
            if not self._persist_promise(msg.ballot):
                return  # disk IO error: cannot promise durably, stay silent
            self._fsync_then_promise(src, reply)
            return
        self.transport.send(src, reply)

    def _on_promise(self, src: str, msg: Promise) -> None:
        if not self._campaigning or msg.ballot != self.ballot:
            return
        self._campaign_promises[src] = msg
        if len(self._campaign_promises) < self._majority():
            return
        self._campaigning = False
        self._become_leader()

    def _on_prepare_nack(self, src: str, msg: PrepareNack) -> None:
        self._note_ballot(msg.promised)
        if msg.ballot != self.ballot or not self._campaigning:
            return
        self._campaigning = False
        self._end_election_span("rejected")
        if msg.lease_holder is not None:
            # Defer to the live lease: treat it as leader contact so the
            # election check backs off for a full timeout.
            self.last_leader_contact = self.transport.now
            self.leader_hint = msg.lease_holder

    def _majority(self) -> int:
        return len(self.members) // 2 + 1

    def _become_leader(self) -> None:
        if self.promised > self.ballot:
            # Our own acceptor promised a higher ballot mid-campaign: it
            # could never vote for what we propose.  Leave it to them.
            self._end_election_span("preempted")
            return
        # If any promiser committed beyond us, we are missing chosen
        # entries (possibly compacted away elsewhere): leading now could
        # re-propose no-ops over chosen slots.  Learn first, lead later.
        best_commit = self.log.commit_index
        best_peer: str | None = None
        for peer, promise in self._campaign_promises.items():
            if promise.commit_index > best_commit:
                best_commit = promise.commit_index
                best_peer = peer
        if best_peer is not None:
            self._end_election_span("catchup")
            self._request_catchup(best_peer)
            return  # the election check will retry once caught up
        self.is_leader = True
        self.leader_hint = self.replica_id
        if self.tracer is not None:
            self.tracer.metrics.inc("paxos.leader_elected")
            self._end_election_span("won")
        self._fail_pending_spans("superseded")
        self._pending.clear()
        self._hb_acks.clear()
        self.member_last_ack = {m: self.transport.now for m in self.members}
        if self.config.follower_reads:
            # Conservative grant horizon: a previous leader may hold
            # grants we cannot see, and none can outlive the lease that
            # was live when it was issued (the lease-guard majority
            # intersects our promise majority, bounding issue time by
            # now).  Until the horizon passes, write commits wait for
            # every member's accept or the horizon itself.
            horizon = self.transport.now + self.config.lease_duration
            self._grants = {m: horizon for m in self.members if m != self.replica_id}
            self._reset_follower_read_state()
        # Merge accepted suffixes from promises: highest ballot wins per slot.
        best: dict[int, tuple[Ballot, Command]] = {}
        max_slot = self.log.commit_index
        for promise in self._campaign_promises.values():
            for slot, ballot, command in promise.accepted:
                max_slot = max(max_slot, slot)
                if slot not in best or ballot > best[slot][0]:
                    best[slot] = (ballot, command)
        backlog: list[tuple[int, Command]] = []
        for slot in range(self._campaign_from_slot, max_slot + 1):
            if self.log.is_chosen(slot):
                continue
            command = best[slot][1] if slot in best else Command.noop()
            backlog.append((slot, command))
        self._backlog = deque(backlog) if backlog else _IDLE
        self._next_slot = max_slot + 1
        self._drain_backlog()
        if self._barrier_slot is None and not self._backlog:
            self._propose_read_barrier()
        self._heartbeat_tick(self.ballot)
        self._retry_tick(self.ballot)

    def _propose_read_barrier(self) -> None:
        slot = self._next_slot
        self._next_slot += 1
        self._read_barrier_slot = slot
        self._send_accepts(slot, Command.noop())

    # ------------------------------------------------------------------
    # Proposal plumbing (leader)
    # ------------------------------------------------------------------
    def _issue(self, command: Command, future: Future) -> None:
        slot = self._next_slot
        self._next_slot += 1
        self._proposal_futures[slot] = future
        if command.kind == CMD_CONFIG:
            self._barrier_slot = slot
        self._send_accepts(slot, command)

    def _drain_backlog(self) -> None:
        """Re-propose recovered entries in order, stalling at config changes."""
        while self._backlog and self._barrier_slot is None:
            slot, command = self._backlog.popleft()
            if command.kind == CMD_CONFIG:
                self._barrier_slot = slot
            self._send_accepts(slot, command)

    def _enqueue(self, command: Command, future: Future) -> None:
        if self._queue is _IDLE:
            self._queue = deque()
        self._queue.append((command, future))

    def _pipe_full(self) -> bool:
        """Flow control: is the in-flight unchosen-slot window exhausted?"""
        return len(self._pending) >= self.config.pipeline_depth

    def _flush_queue(self) -> None:
        while (
            self._queue
            and self._barrier_slot is None
            and not self._backlog
            and not self._pipe_full()
        ):
            command, future = self._queue.popleft()
            self._issue(command, future)

    def _send_accepts(self, slot: int, command: Command) -> None:
        pending = _PendingSlot(command=command)
        if self.config.follower_reads:
            keys, wildcard = self._command_writes(command)
            pending.write = wildcard or bool(keys)
        if self.tracer is not None:
            self.tracer.metrics.inc("paxos.accept_rounds")
            pending.span = self.tracer.begin(
                PAXOS_SLOT, slot=slot, leader=self.replica_id, cmd=command.kind
            )
        self._pending[slot] = pending
        self._send_peers(Accept(self.ballot, slot, command, self.log.commit_index))
        self._accept_own(slot, command)

    def _send_peers(self, msg: Any) -> None:
        for member in self.members:
            if member != self.replica_id:
                self.transport.send(member, msg)

    def _accept_own(self, slot: int, command: Command) -> None:
        """The leader's own vote: the acceptor step taken locally, with no
        message — journaled in parallel with the broadcast to the peers
        and counted from the durability callback, under the ballot and
        membership of that moment (``_count_acks``)."""
        ballot = self.ballot
        if ballot < self.promised:
            return  # the acceptor rule; a sitting leader never gets here
        self.promised = ballot
        if self._accept(ballot, slot, command, partial(self._count_acks, self.replica_id, ballot)):
            pending = self._pending.get(slot)
            if pending is not None:
                pending.own_wal = True

    def _accept(
        self, ballot: Ballot, slot: int, command: Command, ack: Callable[[int], None]
    ) -> bool:
        """The acceptor step for one slot, remote or the leader's own.

        Records and journals the slot, then calls ``ack(slot)``: after
        the fsync covering the record (when the ledger also notes it),
        or at once when there is no storage region.  A slot already
        compacted here is chosen and applied, so it is acked without a
        record; a slot whose append failed (IO error) is not acked, and
        the leader's retry tick covers it.
        Returns whether the ack now waits on the WAL.
        """
        if slot < self.log.first_slot:
            ack(slot)
            return False
        entry = self.log.entry(slot)
        if not entry.chosen:
            entry.accepted_ballot = ballot
            entry.accepted_value = command
        storage = self.storage
        if storage is None:
            ack(slot)
            return False
        if not storage.append_accept(slot, ballot, command):
            return False

        def on_durable() -> None:
            storage.note_acked_accept(slot, ballot, command_label(command))
            ack(slot)

        storage.disk.enqueue_fsync(storage, on_durable)
        return True

    def _on_accept(self, src: str, msg: Accept) -> None:
        """Journal the slot, then answer with an Accepted once it is durable."""
        ballot = msg.ballot
        self._note_ballot(ballot)
        if ballot < self.promised:
            self.transport.send(src, AcceptNack(ballot, msg.slot, self.promised))
            return
        self._observe_other_leader(src, ballot)
        self.promised = ballot
        self._accept(
            ballot, msg.slot, msg.command,
            lambda slot: self.transport.send(src, Accepted(ballot, slot)),
        )
        self._learn_commit_index(src, ballot, msg.commit_index)

    def _observe_other_leader(self, src: str, ballot: Ballot) -> None:
        """A higher-or-equal ballot from another node means we follow it."""
        if self.is_leader and ballot > self.ballot:
            self._reset_leader_state(fail_with=ProposalLost(f"superseded by {src}"))
        if ballot >= self.promised:
            self.leader_hint = src
            self.last_leader_contact = self.transport.now

    def _on_accepted(self, src: str, msg: Accepted) -> None:
        self._count_acks(src, msg.ballot, msg.slot)

    def _count_acks(self, src: str, ballot: Ballot, slot: int) -> None:
        """Count ``src``'s durable accept — a peer's reply or our own vote."""
        if not self.is_leader or ballot != self.ballot:
            return
        self.member_last_ack[src] = self.transport.now
        pending = self._pending.get(slot)
        if pending is None or src not in self.members:
            return
        pending.acks.add(src)
        self._maybe_choose(slot, pending)

    def _grant_blocked(self, pending: _PendingSlot) -> bool:
        """Quorum expansion: is a live read grantee still missing?

        A write-bearing slot is not chosen while any member holds a
        live grant and has not accepted the slot — otherwise that
        member could serve a read that misses the write.  A grantee
        that cannot ack (crashed, partitioned, or removed from the
        configuration) blocks the slot only until its grant expires, at
        most one lease_duration; the heartbeat tick's sweep unblocks.
        """
        now = self.transport.now
        for member, until in self._grants.items():
            if now < until and member not in pending.acks:
                return True
        return False

    def _maybe_choose(self, slot: int, pending: _PendingSlot) -> None:
        if len(pending.acks) < self._majority():
            return
        if self._grants and pending.write and self._grant_blocked(pending):
            return
        del self._pending[slot]
        self._retry_delay = None
        if self.tracer is not None:
            self.tracer.metrics.inc("paxos.slots_chosen")
            if pending.span is not None and pending.span.open:
                self.tracer.finish(pending.span, outcome="chosen")
        self.log.mark_chosen(slot, pending.command)
        self._apply_committed()
        if self._barrier_slot == slot:
            pass  # cleared in _apply_committed once the config applies
        self._drain_backlog()
        self._after_commit_progress()

    def _after_commit_progress(self) -> None:
        if not self.is_leader:
            return
        stretch = self._hb_stretch
        if (
            stretch is not None
            and stretch.time > self.transport.now
            and self.log.commit_index != self._hb_commit_index
        ):
            # A commit during a stretched wait is news a follower or a
            # joining member may be waiting on: send the round now.
            stretch.cancel()
            self._hb_stretch = self.transport.set_timer(0.0, self._heartbeat_tick, self.ballot)
        if self._barrier_slot is None and not self._backlog:
            if self._read_barrier_slot is None:
                self._propose_read_barrier()
            self._flush_queue()

    def _on_accept_nack(self, src: str, msg: AcceptNack) -> None:
        self._note_ballot(msg.promised)
        if self.is_leader and msg.promised > self.ballot:
            self._reset_leader_state(fail_with=ProposalLost(f"preempted by {msg.promised}"))
            self.last_leader_contact = self.transport.now

    # ------------------------------------------------------------------
    # Heartbeats, leases, commit propagation
    # ------------------------------------------------------------------
    def _heartbeat_tick(self, ballot: Ballot) -> None:
        if not self.is_leader or self.ballot != ballot or self.retired:
            return
        now = self.transport.now
        # Step down if a majority has been silent for a full election
        # timeout.  A leader that can send but not receive (asymmetric
        # partition) would otherwise heartbeat forever: followers keep
        # hearing it, stay loyal, and never elect a reachable leader.
        # Going silent lets their election timers fire.
        if len(self.members) > 1:
            heard = sum(
                1
                for m in self.members
                if m == self.replica_id
                or now - self.member_last_ack.get(m, now) <= self.config.election_timeout
            )
            if heard < self._majority():
                self._reset_leader_state(
                    fail_with=ProposalLost("lost contact with quorum")
                )
                return
        # The tick a heartbeat_interval after a round is a checkpoint.  A
        # quiescent leader whose round every member acked skips the
        # rounds that would only repeat it: the next one leaves at
        # lease_duration - heartbeat_interval after the last, a full
        # interval before the lease it renews lapses, and every follower
        # hears it within lease_duration.  Any missing ack, any work and
        # any follower-read grant keeps heartbeat_interval.
        wait = self.config.lease_duration - 2 * self.config.heartbeat_interval
        if self._hb_stretch is None:
            if (
                wait > 0
                and not self._pending
                and not self._queue
                and not self._backlog
                and self.log.commit_index == self._hb_commit_index
                and not self.config.follower_reads
                and all(m in self._hb_heard for m in self.members)
            ):
                self._hb_stretch = self.transport.set_timer(wait, self._heartbeat_tick, ballot)
                return
        else:
            self._hb_stretch = None
        # The leader is its own lease grantor: refreshing its contact time
        # makes its local acceptor reject foreign Prepares while it is
        # actively heartbeating, like every other member does.
        self.last_leader_contact = now
        self._hb_acks[now] = {self.replica_id}
        if len(self._hb_acks) > 64:
            # Keyed by send time, which only grows, so the oldest entry
            # is the first; one is added per tick, so one goes per tick.
            del self._hb_acks[next(iter(self._hb_acks))]
        if self.config.follower_reads:
            self._send_granting_heartbeats(now)
        else:
            self._send_peers(
                Heartbeat(ballot=self.ballot, commit_index=self.log.commit_index, send_time=now)
            )
        if len(self.members) == 1:
            self._lease_until = now + self.config.lease_duration
        if self.tracer is not None:
            self.tracer.metrics.inc("paxos.heartbeats")
        self._hb_sent = now
        self._hb_heard = {self.replica_id}
        self._hb_commit_index = self.log.commit_index
        self.transport.set_timer(self.config.heartbeat_interval, self._heartbeat_tick, ballot)

    def _send_granting_heartbeats(self, now: float) -> None:
        """Follower-reads heartbeat fan-out: per-member read grants.

        A member is granted only while the leader's own lease is live
        (so a deposed leader cannot mint grants the new leader's
        conservative horizon would not cover) and the member's last ack
        is fresh, so a crashed or partitioned member stops being
        granted within one lease.  Granting records the obligation in
        ``_grants`` — the quorum-expansion half of the safety argument.
        """
        lease_live = now < self._lease_until
        expiry = now + self.config.lease_duration
        for member in self.members:
            if member == self.replica_id:
                continue
            last = self.member_last_ack.get(member, self.last_leader_contact)
            grant = lease_live and now - last <= self.config.lease_duration
            if grant and expiry > self._grants.get(member, -1.0):
                self._grants[member] = expiry
            self.transport.send(
                member,
                Heartbeat(
                    ballot=self.ballot,
                    commit_index=self.log.commit_index,
                    send_time=now,
                    read_grant=grant,
                ),
            )
        for member in [m for m, until in self._grants.items() if until <= now]:
            del self._grants[member]
        self._sweep_granted_slots()

    def _sweep_granted_slots(self) -> None:
        """Re-evaluate pending slots blocked only on read grants.

        A grant expiring is commit progress the Accepted handlers never
        see, so each heartbeat tick re-checks: a slot with a majority
        of acks whose last live non-acking grantee just expired is
        chosen here.
        """
        if not self._pending:
            return
        for slot in sorted(self._pending):
            if not self.is_leader:
                return  # choosing can cascade into retirement/step-down
            pending = self._pending.get(slot)
            if pending is not None:
                self._maybe_choose(slot, pending)

    def _on_heartbeat(self, src: str, msg: Heartbeat) -> None:
        self._note_ballot(msg.ballot)
        if msg.ballot < self.promised:
            # Tell a stale leader about the higher ballot.  A node that
            # campaigned fruitlessly while cut off comes back with a high
            # ``promised`` it can never lower; silently ignoring the
            # leader would orphan it forever, since heartbeats are the
            # only traffic an idle group has.  The nack makes the leader
            # step down and re-elect above our ballot, after which we
            # rejoin.
            self.transport.send(src, AcceptNack(msg.ballot, -1, self.promised))
            return
        self._observe_other_leader(src, msg.ballot)
        self.promised = max(self.promised, msg.ballot)
        self.transport.send(
            src,
            HeartbeatAck(ballot=msg.ballot, send_time=msg.send_time, applied_index=self.applied_index),
        )
        if self.config.follower_reads:
            if msg.read_grant:
                self._fr_grant_until = msg.send_time + self.config.lease_duration
                self._fr_frontier = msg.commit_index
            else:
                # The leader stopped granting (its own lease lapsed, or
                # our acks went stale); drop ours early — conservative,
                # and converges faster than waiting out the expiry.
                self._fr_grant_until = -1.0
        self._learn_commit_index(src, msg.ballot, msg.commit_index)

    def _on_heartbeat_ack(self, src: str, msg: HeartbeatAck) -> None:
        if not self.is_leader or msg.ballot != self.ballot:
            return
        self.member_last_ack[src] = self.transport.now
        if msg.send_time == self._hb_sent:
            self._hb_heard.add(src)
        acks = self._hb_acks.get(msg.send_time)
        if acks is None:
            return
        acks.add(src)
        if len(acks) >= self._majority():
            # A later ack of the same heartbeat could only repeat this.
            del self._hb_acks[msg.send_time]
            lease_until = msg.send_time + self.config.lease_duration
            if lease_until > self._lease_until:
                self._lease_until = lease_until

    def _retry_tick(self, ballot: Ballot) -> None:
        """Retransmit Accepts for slots that have not reached a quorum.

        Fruitless retry rounds back off with decorrelated jitter toward
        ``retry_cap`` (commit progress resets to ``retry_interval``), so
        leaders stalled by the same fault do not retransmit in lockstep.
        """
        if not self.is_leader or self.ballot != ballot or self.retired:
            return
        if self.tracer is not None and self._pending:
            self.tracer.metrics.inc("paxos.retransmissions", len(self._pending))
            self.tracer.metrics.inc("paxos.accept_rounds", len(self._pending))
        # Each member's unacked slots.  Our own vote is retried by taking
        # the acceptor step again (its append failed, or its fsync did),
        # except where this round's record may still be awaiting its fsync.
        need: dict[str, list[tuple[int, Command]]] = {}
        for slot, pending in sorted(self._pending.items()):
            for member in self.members:
                if member in pending.acks:
                    continue
                if member == self.replica_id and pending.own_wal:
                    pending.own_wal = False
                    continue
                need.setdefault(member, []).append((slot, pending.command))
        own = need.pop(self.replica_id, [])
        for member, pairs in need.items():
            for slot, command in pairs:
                self.transport.send(
                    member, Accept(self.ballot, slot, command, self.log.commit_index)
                )
        for slot, command in own:
            if self.is_leader:  # our vote can choose a slot that retires us
                self._accept_own(slot, command)
        if self._pending:
            self._retry_delay = decorrelated_jitter(
                self.transport.rng(),
                self.config.retry_interval,
                self.config.retry_cap,
                self._retry_delay,
            )
            delay = self._retry_delay
        else:
            self._retry_delay = None
            delay = self.config.retry_interval
        self.transport.set_timer(delay, self._retry_tick, ballot)

    # ------------------------------------------------------------------
    # Learning and catch-up
    # ------------------------------------------------------------------
    def _learn_commit_index(self, src: str, src_ballot: Ballot, commit_index: int) -> None:
        """Absorb a peer's commit index; catch up on slots we lack."""
        if commit_index <= self.log.commit_index:
            return
        need_catchup = False
        for slot in range(self.log.commit_index + 1, commit_index + 1):
            entry = self.log.get(slot)
            if entry is not None and entry.chosen:
                continue
            if entry is not None and entry.accepted_ballot == src_ballot:
                # Our accepted value at the leader's ballot is the chosen one.
                self.log.mark_chosen(slot, entry.accepted_value)
            else:
                need_catchup = True
                break
        self._apply_committed()
        if need_catchup:
            self._request_catchup(src)

    def _request_catchup(self, src: str) -> None:
        now = self.transport.now
        if now - self._last_catchup_request.get(src, -1.0) < self.config.heartbeat_interval:
            return
        self._last_catchup_request[src] = now
        self.transport.send(src, CatchupRequest(from_slot=self.log.commit_index + 1))

    def _on_not_member(self, src: str, msg: NotMember) -> None:
        self.retire()

    def _on_catchup_request(self, src: str, msg: CatchupRequest) -> None:
        if msg.from_slot < self.log.first_slot:
            # The requested prefix was compacted: ship our snapshot.
            if self.snapshot_fn is not None:
                self.transport.send(
                    src,
                    InstallSnapshot(
                        snapshot=self.snapshot_fn(),
                        last_included=self.applied_index,
                        members=tuple(self.members),
                        commit_index=self.log.commit_index,
                    ),
                )
            return
        to_slot = min(msg.from_slot + CATCHUP_BATCH - 1, self.log.commit_index)
        entries = tuple(
            (slot, value) for slot, value in self.log.chosen_range(msg.from_slot, to_slot)
        )
        self.transport.send(src, CatchupReply(entries=entries, commit_index=self.log.commit_index))

    def _on_install_snapshot(self, src: str, msg: InstallSnapshot) -> None:
        if msg.last_included <= self.applied_index or self.restore_fn is None:
            return
        self.restore_fn(msg.snapshot)
        self.applied_index = msg.last_included
        self.members = list(msg.members)
        if self.storage is not None:
            self.storage.save_snapshot(
                msg.snapshot, msg.last_included, tuple(msg.members)
            )
        self.log.reset_to(msg.last_included + 1)
        # The jump may have exposed already-chosen retained entries.
        self._apply_committed()
        if msg.commit_index > self.log.commit_index:
            self._request_catchup(src)

    def _maybe_compact(self) -> None:
        threshold = self.config.compact_threshold
        if threshold <= 0 or self.snapshot_fn is None:
            return
        if self.applied_index - self.log.first_slot + 1 < threshold:
            return
        self._snapshot = self.snapshot_fn()
        if self.storage is not None:
            self.storage.save_snapshot(
                self._snapshot, self.applied_index, tuple(self.members)
            )
        self.log.truncate_before(self.applied_index + 1)

    def _on_catchup_reply(self, src: str, msg: CatchupReply) -> None:
        for slot, command in msg.entries:
            self.log.mark_chosen(slot, command)
        self._apply_committed()
        if msg.commit_index > self.log.commit_index:
            self._request_catchup(src)

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------
    def _apply_committed(self) -> None:
        while self.applied_index < self.log.commit_index:
            slot = self.applied_index + 1
            command = self.log.chosen_value(slot)
            # Pop the waiter first: applying a "remove self" config change
            # retires the replica, which fails any still-registered futures.
            future = self._proposal_futures.pop(slot, None)
            if command.kind == CMD_CONFIG:
                self._apply_config(command.payload)
            if command.kind == CMD_BATCH:
                result = [self.apply_fn(slot, sub) for sub in command.payload]
            else:
                result = self.apply_fn(slot, command)
            self.applied_index = slot
            if future is not None:
                future.set_result(result)
            if self._barrier_slot == slot:
                self._barrier_slot = None
        self._maybe_compact()
        self._after_commit_progress()

    def _apply_config(self, change: ConfigChange) -> None:
        if change.action == "add":
            if change.member not in self.members:
                self.members.append(change.member)
                if self.is_leader:
                    self.member_last_ack.setdefault(change.member, self.transport.now)
        else:
            if change.member in self.members:
                self.members.remove(change.member)
            self.member_last_ack.pop(change.member, None)
            if change.member == self.replica_id:
                self.retire()
            elif self.is_leader:
                self.transport.send(
                    change.member, NotMember(commit_index=self.log.commit_index)
                )

    _HANDLERS: dict[type, Callable[["PaxosReplica", str, Any], None]] = {}


PaxosReplica._HANDLERS = {
    Prepare: PaxosReplica._on_prepare,
    Promise: PaxosReplica._on_promise,
    PrepareNack: PaxosReplica._on_prepare_nack,
    Accept: PaxosReplica._on_accept,
    Accepted: PaxosReplica._on_accepted,
    AcceptNack: PaxosReplica._on_accept_nack,
    Heartbeat: PaxosReplica._on_heartbeat,
    HeartbeatAck: PaxosReplica._on_heartbeat_ack,
    NotMember: PaxosReplica._on_not_member,
    TransferLease: PaxosReplica._on_transfer_lease,
    CatchupRequest: PaxosReplica._on_catchup_request,
    InstallSnapshot: PaxosReplica._on_install_snapshot,
    CatchupReply: PaxosReplica._on_catchup_reply,
}
