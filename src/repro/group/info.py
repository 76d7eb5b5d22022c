"""Descriptions of groups passed between nodes and stored as pointers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.dht.ring import KeyRange
from repro.store.kvstore import RangeState


@dataclass(frozen=True)
class GroupInfo:
    """What one group knows (or caches) about another group.

    Adjacency pointers hold these; they are updated transactionally by
    group operations, but the ``members`` and ``leader_hint`` fields are
    hints that can go stale between operations — routing treats them as
    starting points, not truth.
    """

    gid: str
    range: KeyRange
    members: tuple[str, ...]
    leader_hint: str
    # Monotonic freshness: bumped by every applied config change or
    # repartition, so caches can tell which of two infos is newer.
    epoch: int = 0

    def with_range(self, new_range: KeyRange) -> "GroupInfo":
        """Copy of this info owning ``new_range`` (other fields kept)."""
        return replace(self, range=new_range)


@dataclass
class GroupGenesis:
    """Everything needed to instantiate a replica of a group.

    Created once per group (at bootstrap, or by the split/merge commit
    that creates the group) and shipped to late-joining members, whose
    replicas start from this state and replay the group's Paxos log.
    """

    gid: str
    range: KeyRange
    members: tuple[str, ...]
    initial_leader: str
    kv: RangeState = field(default_factory=RangeState)
    predecessor: GroupInfo | None = None
    successor: GroupInfo | None = None

    def info(self) -> GroupInfo:
        """The :class:`GroupInfo` advertising this newborn group."""
        return GroupInfo(
            gid=self.gid,
            range=self.range,
            members=self.members,
            leader_hint=self.initial_leader,
        )
