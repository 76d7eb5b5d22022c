"""Wire messages for Multi-Paxos."""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.commands import Command
from repro.consensus.single import Ballot


@dataclass(frozen=True, slots=True)
class Prepare:
    """Phase 1a for every slot >= from_slot."""

    ballot: Ballot
    from_slot: int


@dataclass(frozen=True, slots=True)
class Promise:
    """Phase 1b: accepted suffix plus the acceptor's commit index."""

    ballot: Ballot
    from_slot: int
    accepted: tuple[tuple[int, Ballot, Command], ...]
    commit_index: int


@dataclass(frozen=True, slots=True)
class PrepareNack:
    ballot: Ballot
    promised: Ballot
    lease_holder: str | None = None  # set when rejected because of a live lease


@dataclass(frozen=True, slots=True)
class Accept:
    """Phase 2a for one slot.  Piggybacks the leader's commit index.

    The leader sends each slot's Accept as the slot is issued, and its
    retry tick retransmits per slot.  The receiver journals the slot and
    answers with an :class:`Accepted` once the record is durable.
    """

    ballot: Ballot
    slot: int
    command: Command
    commit_index: int


@dataclass(frozen=True, slots=True)
class Accepted:
    """Phase 2b: ``slot`` was journaled durably under ``ballot``.  A
    slot whose WAL append failed gets no Accepted; the leader's retry
    tick covers it."""

    ballot: Ballot
    slot: int


@dataclass(frozen=True, slots=True)
class AcceptNack:
    ballot: Ballot
    slot: int
    promised: Ballot


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Leader liveness + commit propagation + lease renewal.

    With follower reads enabled (``PaxosConfig.follower_reads``) the
    leader additionally piggybacks a per-member *read grant*:
    ``read_grant`` authorizes the receiver to serve local reads until
    ``send_time + lease_duration``, and ``commit_index`` doubles as the
    commit frontier the receiver must have applied first.  The grant
    defaults to off, so wire traffic is unchanged without the knob.
    """

    ballot: Ballot
    commit_index: int
    send_time: float
    read_grant: bool = False


@dataclass(frozen=True, slots=True)
class HeartbeatAck:
    ballot: Ballot
    send_time: float
    applied_index: int


@dataclass(frozen=True, slots=True)
class TransferLease:
    """Leadership handoff: the current leader blesses ``target``.

    Every member updates its leader hint so the target's Prepare passes
    the lease guard; the target campaigns immediately.
    """

    ballot: Ballot
    target: str


@dataclass(frozen=True, slots=True)
class NotMember:
    """Tells an ex-member it was removed by a committed config change.

    Configurations only move forward within a group generation and a
    removed node is never re-added to the same group (group operations
    create fresh groups instead), so this notification is authoritative.
    """

    commit_index: int


@dataclass(frozen=True, slots=True)
class CatchupRequest:
    """Ask a peer for chosen entries starting at from_slot."""

    from_slot: int


@dataclass(frozen=True, slots=True)
class CatchupReply:
    entries: tuple[tuple[int, Command], ...]
    commit_index: int


@dataclass(frozen=True, slots=True)
class InstallSnapshot:
    """State transfer for a peer too far behind a compacted log.

    ``snapshot`` is the opaque application state produced by the host's
    snapshot function at ``last_included`` (every slot <= last_included
    applied); ``members`` is the configuration in effect there.
    """

    snapshot: object
    last_included: int
    members: tuple[str, ...]
    commit_index: int
