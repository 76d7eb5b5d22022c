"""Messages exchanged between Scatter nodes (above the Paxos layer)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.group.info import GroupGenesis, GroupInfo
from repro.store.kvstore import KvOp, KvResult
from repro.txn.spec import TxnSpec


@dataclass(frozen=True, slots=True)
class GroupMsg:
    """Frames a Paxos message with its group id so hosts can demux."""

    gid: str
    inner: Any


@dataclass(frozen=True, slots=True)
class ClientOpReq:
    """A storage operation sent by a client to some node.

    A node that does not own the key answers ``redirect``: the client
    follows the hops itself (iterative routing).
    """

    op: KvOp
    dedup: tuple[str, int, int] | None = None


@dataclass(frozen=True, slots=True)
class ClientOpResp:
    """Reply to a client operation.

    Only the serving node decides whether an op is refused, and a
    refusal is always a ``status``, never a ``result``.  ``status`` is
    one of:

    - ``ok`` — the op's answer: ``result`` holds a value, a miss
      (``error="not_found"``), a write's ack or a CAS ``conflict``.
    - ``not_leader`` — retry at ``leader_hint`` (same group).
    - ``busy`` — the group is locked by a group operation, or the op
      was refused at apply because it froze meanwhile; back off.
    - ``redirect`` — no active group on this node owns the key (it may
      have been split, merged or migrated away, or the op was refused
      at apply because its group retired meanwhile); ``groups`` holds
      the best next hops this node knows.
    - ``lost`` — this node knows of no route (rare; client re-seeds).

    A refused op changed nothing, so the client's retry is applied
    exactly once.
    """

    status: str
    result: KvResult | None = None
    leader_hint: str | None = None
    groups: tuple[GroupInfo, ...] = ()


@dataclass(frozen=True, slots=True)
class JoinLookupReq:
    """A joining node asks a seed where to join."""


@dataclass(frozen=True, slots=True)
class JoinLookupResp:
    target: GroupInfo | None


@dataclass(frozen=True, slots=True)
class GroupJoinReq:
    """Ask a group's leader to add the sender as a member."""

    gid: str


@dataclass(frozen=True, slots=True)
class GroupJoinResp:
    """``status``: ok | not_leader | busy | unknown_group | moved."""

    status: str
    genesis: GroupGenesis | None = None
    leader_hint: str | None = None
    groups: tuple[GroupInfo, ...] = ()


@dataclass(frozen=True, slots=True)
class GroupLeaveReq:
    """Graceful departure: ask the leader to remove the sender."""

    gid: str


@dataclass(frozen=True, slots=True)
class WelcomeMsg:
    """Shipped to a node added by migration so it can host the group."""

    genesis: GroupGenesis


@dataclass(frozen=True, slots=True)
class TxnPrepareReq:
    gid: str
    spec: TxnSpec


@dataclass(frozen=True, slots=True)
class TxnCommitReq:
    gid: str
    spec: TxnSpec
    data: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class TxnAbortReq:
    gid: str
    spec: TxnSpec


@dataclass(frozen=True, slots=True)
class TxnResp:
    """status: prepared | refused | committed | aborted | dup | ignored |
    not_leader | unknown_group."""

    status: str
    data: Any = None
    leader_hint: str | None = None


@dataclass(frozen=True, slots=True)
class TxnStatusReq:
    spec: TxnSpec


@dataclass(frozen=True, slots=True)
class TxnStatusResp:
    """status: committed | aborted | unknown."""

    status: str
    data: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class GroupNeighborsReq:
    """Ask a group's leader for its fresh info and adjacency pointers."""

    gid: str


@dataclass(frozen=True, slots=True)
class GroupNeighborsResp:
    """status: ok | not_leader | unknown_group | moved."""

    status: str
    info: GroupInfo | None = None
    predecessor: GroupInfo | None = None
    successor: GroupInfo | None = None
    leader_hint: str | None = None
    groups: tuple[GroupInfo, ...] = ()


@dataclass(frozen=True, slots=True)
class GossipReq:
    """Ask a peer for a sample of its routing knowledge."""


@dataclass(frozen=True, slots=True)
class GossipResp:
    infos: tuple[GroupInfo, ...]
