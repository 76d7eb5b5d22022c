"""Per-node simulated disk: WAL records, fsync boundaries, fault flags.

One :class:`NodeDisk` models the single physical disk of a simulated
node; each Paxos replica hosted on the node owns one
:class:`ReplicaStorage` region on it (keyed by group id).  The model is
deliberately logical — records are Python objects, not bytes — but the
*semantics* are the ones that matter for crash recovery:

- **Appends are cheap, fsync is the barrier.**  A record appended to
  the WAL is volatile until an fsync covering it completes.  Replicas
  ack a Promise/Accepted only from their fsync-completion callback, so
  "acked" always implies "durable" (unless a demo bug breaks exactly
  that link).
- **One fsync at a time.**  The disk is one device shared by all of the
  node's regions: an ack that reaches it idle starts an fsync, an ack
  that arrives while one is in flight waits and rides the next, which
  the completion starts at once (:meth:`NodeDisk.enqueue_fsync`).  That
  is group commit with no window to tune: the batch is whatever arrived
  during the previous fsync, so a busier or slower disk batches more.
- **Power failure loses the un-fsynced suffix.**  ``Node.crash()``
  calls :meth:`NodeDisk.power_failure`, which drops every record newer
  than the last completed fsync.
- **Checksums detect torn or corrupted records at recovery.**  A fault
  can mark a tail of the WAL corrupt; recovery notices and — because a
  disk that lies once cannot be trusted at all — the replica takes the
  amnesia path (rejoin as a non-voting learner).
- **The acked ledger is checker-side state.**  Every durable ack is
  also recorded in a ledger the ``acceptor-durability`` invariant reads;
  it is bookkeeping for the test harness, never consulted by the
  protocol itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

# Mirrors repro.consensus.single's Ballot / BALLOT_ZERO.  Defined here
# (not imported) because repro.consensus imports this module: ballots are
# plain (round, replica_id) tuples, so the values compare identically.
Ballot = tuple[int, str]
BALLOT_ZERO: Ballot = (0, "")

REC_PROMISE = "promise"
REC_ACCEPT = "accept"
REC_CHOSEN = "chosen"


def command_label(command: Any) -> str:
    """Stable, comparison-safe label for a command (no closure reprs)."""
    kind = getattr(command, "kind", "?")
    dedup = getattr(command, "dedup", None)
    return f"{kind}:{dedup}"


@dataclass(frozen=True)
class StorageConfig:
    """Knobs of the simulated durable-storage model."""

    # How long one fsync takes.  Kept small but nonzero so a lost-suffix
    # window actually exists between an append and the completion of
    # the fsync that covers it.
    fsync_latency: float = 0.002

    def __post_init__(self) -> None:
        if self.fsync_latency < 0:
            raise ValueError("fsync_latency must be >= 0")


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One write-ahead-log record.

    ``seq`` is a per-region monotone sequence number: records with
    ``seq <= synced_seq`` survived the last fsync and therefore survive
    a power failure.  ``slot`` is -1 for promise records.
    """

    seq: int
    kind: str  # REC_PROMISE | REC_ACCEPT | REC_CHOSEN
    slot: int
    ballot: Ballot | None
    value: Any


class ReplicaStorage:
    """One replica's durable region on its node's disk."""

    def __init__(self, disk: "NodeDisk", gid: str) -> None:
        self.disk = disk
        self.gid = gid
        self.records: list[WalRecord] = []
        self._next_seq = 1
        self.synced_seq = 0
        # ``records`` is in seq order and is only appended to, filtered
        # by save_snapshot or cut at the durable boundary, so the
        # durable records (seq <= synced_seq) are always the prefix
        # records[:_durable].  Every operation below works from that
        # boundary and costs what it covers, not the length of the log.
        self._durable = 0
        # (state, last_included_slot, members) or None.  Snapshot writes
        # are modelled as atomic (write-new + rename); a crash never
        # leaves a half-written snapshot.
        self.snapshot: tuple[Any, int, tuple[str, ...]] | None = None
        # Highest promise ballot covered by a completed fsync.  Folded in
        # at fsync time so snapshot compaction can drop promise records.
        self.durable_promise: Ballot = BALLOT_ZERO
        # Records at or after this seq fail their checksum at recovery
        # (None = clean).  Set by the disk-corruption fault.
        self.corrupt_from: int | None = None
        # True after disk loss or detected corruption, until the replica
        # finishes catching up as a learner.  Durable marker: survives
        # further crashes, so a node that crashes mid-amnesia resumes
        # amnesiac.
        self.amnesiac = False

        # --- checker-side ledger (acceptor-durability invariant) ------
        # Never read by the protocol.  acked_promise / acked_accepts
        # record what this replica told its peers; ``reneged`` records
        # definitive breaches detected during recovery.
        self.acked_promise: Ballot = BALLOT_ZERO
        self.acked_accepts: dict[int, tuple[Ballot, str]] = {}
        self.reneged: list[str] = []

        # --- counters for experiments / tests -------------------------
        self.fsyncs = 0
        self.recoveries = 0
        self.replayed_total = 0
        self.max_replayed = 0
        self.snapshot_recoveries = 0
        self.last_recovery: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Write path (called by PaxosReplica)
    # ------------------------------------------------------------------
    def current_seq(self) -> int:
        """Sequence number of the most recently appended record (0 = none)."""
        return self._next_seq - 1

    def _append(self, kind: str, slot: int, ballot: Ballot | None, value: Any) -> bool:
        if self.disk.io_error:
            return False
        record = WalRecord(self._next_seq, kind, slot, ballot, value)
        self._next_seq += 1
        self.records.append(record)
        tracer = self.disk.tracer
        if tracer is not None:
            tracer.metrics.inc("wal.appends")
        return True

    def append_promise(self, ballot: Ballot) -> bool:
        return self._append(REC_PROMISE, -1, ballot, None)

    def append_accept(self, slot: int, ballot: Ballot, command: Any) -> bool:
        return self._append(REC_ACCEPT, slot, ballot, command)

    def append_chosen(self, slot: int, command: Any) -> None:
        """Lazily journal a learned choice (no fsync barrier, no ack).

        If the record is lost with the un-fsynced suffix, recovery
        re-learns the choice through ordinary catch-up; journaling it
        just makes recovery local and fast in the common case.
        """
        self._append(REC_CHOSEN, slot, None, command)

    def mark_synced(self, seq: int) -> None:
        """An fsync covering records up to ``seq`` completed.

        ``seq`` is a ``current_seq()`` read at or before this call; a
        stale one (an older barrier completing late) covers nothing.
        """
        self.fsyncs += 1
        records = self.records
        start = end = self._durable
        if seq > self.synced_seq:
            total = len(records)
            promise = self.durable_promise
            while end < total:
                record = records[end]
                if record.seq > seq:
                    break
                if record.kind == REC_PROMISE:
                    if record.ballot is not None and record.ballot > promise:
                        promise = record.ballot
                end += 1
            self.durable_promise = promise
            self._durable = end
            self.synced_seq = seq
        tracer = self.disk.tracer
        if tracer is not None:
            tracer.metrics.inc("wal.fsyncs")
            tracer.metrics.observe("fsync.batch_size", end - start)

    # ------------------------------------------------------------------
    # Ledger (ack-time bookkeeping for the durability invariant)
    # ------------------------------------------------------------------
    def note_acked_promise(self, ballot: Ballot) -> None:
        if ballot > self.acked_promise:
            self.acked_promise = ballot

    def note_acked_accept(self, slot: int, ballot: Ballot, label: str) -> None:
        prior = self.acked_accepts.get(slot)
        if prior is None or ballot >= prior[0]:
            self.acked_accepts[slot] = (ballot, label)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def save_snapshot(self, state: Any, last_included: int, members: tuple[str, ...]) -> None:
        """Atomically persist a snapshot and compact the WAL behind it."""
        if self.disk.io_error:
            return  # write failed; old snapshot + WAL remain authoritative
        self.snapshot = (state, last_included, members)
        # Promise records are folded into durable_promise at fsync time;
        # keep only slot records the snapshot does not cover, plus the
        # still-volatile suffix (which a crash would lose anyway).
        durable = self._durable
        kept = [
            r
            for r in self.records[:durable]
            if r.kind != REC_PROMISE and r.slot > last_included
        ]
        self._durable = len(kept)
        kept += self.records[durable:]
        self.records = kept
        for slot in [s for s in self.acked_accepts if s <= last_included]:
            del self.acked_accepts[slot]

    # ------------------------------------------------------------------
    # Faults (called by Node.crash, FaultTarget, nemeses)
    # ------------------------------------------------------------------
    def power_failure(self) -> None:
        """Drop the un-fsynced WAL suffix (the node lost power)."""
        del self.records[self._durable :]

    def corrupt_tail(self, count: int) -> None:
        """Mark the last ``count`` durable records checksum-corrupt."""
        durable = self._durable
        if not durable or count <= 0:
            return
        start = self.records[max(0, durable - count)].seq
        if self.corrupt_from is None or start < self.corrupt_from:
            self.corrupt_from = start

    def wipe(self) -> None:
        """Lose everything on disk; the replica must rejoin with amnesia."""
        self.records = []
        self._durable = 0
        self.synced_seq = self.current_seq()
        self.snapshot = None
        self.durable_promise = BALLOT_ZERO
        self.corrupt_from = None
        self.amnesiac = True
        self.acked_promise = BALLOT_ZERO
        self.acked_accepts.clear()

    def clear_amnesia(self) -> None:
        self.amnesiac = False

    # ------------------------------------------------------------------
    # Recovery (called by PaxosReplica on restart)
    # ------------------------------------------------------------------
    def recovery_image(self) -> tuple[Any | None, list[WalRecord]]:
        """Snapshot + replayable WAL records, applying checksum policy.

        A checksum failure anywhere in the durable WAL means the disk
        cannot be trusted: the region is wiped and the replica recovers
        with amnesia (``self.amnesiac`` is set by :meth:`wipe`).
        """
        self.recoveries += 1
        if self.corrupt_from is not None:
            self.wipe()
        if self.amnesiac:
            self.last_recovery = {"mode": "amnesia", "replayed": 0, "snapshot": False}
            return None, []
        replay = self.records[: self._durable]
        self.replayed_total += len(replay)
        self.max_replayed = max(self.max_replayed, len(replay))
        if self.snapshot is not None:
            self.snapshot_recoveries += 1
        self.last_recovery = {
            "mode": "replay",
            "replayed": len(replay),
            "snapshot": self.snapshot is not None,
        }
        return self.snapshot, replay


class NodeDisk:
    """All durable regions of one simulated node, plus fault flags."""

    def __init__(
        self,
        node_id: str,
        config: StorageConfig | None = None,
        tracer: Any = None,
        set_timer: Callable[..., Any] | None = None,
    ) -> None:
        self.node_id = node_id
        self.config = config or StorageConfig()
        self.regions: dict[str, ReplicaStorage] = {}
        # Fault flags, toggled by the fault-injection layers.  io_error:
        # appends/fsyncs/snapshot writes fail (no ack is ever sent for
        # them).  fsync_factor: multiplier on fsync latency (slow disk).
        self.io_error = False
        self.fsync_factor = 1.0
        # repro.obs tracer if the host's simulator has one bound (None =
        # the disabled fast path; see wal.appends / wal.fsyncs metrics).
        self.tracer = tracer
        # The host node's crash-guarded timer: a power failure cancels
        # the running fsync's completion, so no ack escapes for a record
        # the crash threw away.  Only enqueue_fsync needs it.
        self._set_timer = set_timer
        # The durability barrier.  ``_in_flight`` is the batch of acks
        # the running fsync covers (None = the disk is idle) and
        # ``_waiting`` the acks that arrived since it started.  Entries
        # are (region, covered_seq, on_durable).
        self._in_flight: list[tuple[ReplicaStorage, int, Callable[[], None]]] | None = None
        self._waiting: list[tuple[ReplicaStorage, int, Callable[[], None]]] = []

    # ------------------------------------------------------------------
    # The durability barrier: one fsync at a time
    # ------------------------------------------------------------------
    def enqueue_fsync(self, region: ReplicaStorage, on_durable: Callable[[], None]) -> None:
        """Call ``on_durable`` once an fsync covering ``region``'s WAL as
        it stands now has completed.

        An idle disk starts that fsync at once.  A busy one makes the
        ack wait: the running fsync was issued before this append, so it
        does not cover it, and the ack rides the next one with everything
        else that arrived meanwhile, from any region.
        """
        self._waiting.append((region, region.current_seq(), on_durable))
        if self._in_flight is None:
            self._start_fsync()

    def _start_fsync(self) -> None:
        self._in_flight, self._waiting = self._waiting, []
        self._set_timer(self.config.fsync_latency * self.fsync_factor, self._complete_fsync)

    def _complete_fsync(self) -> None:
        """The running fsync finished: start the next, mark durable, fan
        the acks out."""
        batch, self._in_flight = self._in_flight, None
        if self._waiting:
            self._start_fsync()
        if batch is None or self.io_error:
            # Power failure took the batch, or the fsync failed: its
            # records stay volatile, no ack is sent, and leaders retry.
            return
        # A region's sequence numbers only grow, so its last entry in
        # the batch covers its earlier ones.
        covered = {region: upto for region, upto, _on_durable in batch}
        for region, upto in covered.items():
            region.mark_synced(upto)
        for _region, _upto, on_durable in batch:
            on_durable()

    def storage_for(self, gid: str) -> ReplicaStorage:
        region = self.regions.get(gid)
        if region is None:
            region = ReplicaStorage(self, gid)
            self.regions[gid] = region
        return region

    def power_failure(self) -> None:
        # The acks of the running fsync and of the waiting batch die with
        # the suffix; the crash-guarded completion never fires, and the
        # disk is idle again for the appends that follow recovery.
        self._in_flight = None
        self._waiting.clear()
        for region in self.regions.values():
            region.power_failure()

    def wipe(self) -> None:
        """Disk loss: every region is gone; replicas rejoin amnesiac."""
        for region in self.regions.values():
            region.wipe()

    def corrupt_tail(self, count: int) -> None:
        for region in self.regions.values():
            region.corrupt_tail(count)

    def clear_faults(self) -> None:
        self.io_error = False
        self.fsync_factor = 1.0
