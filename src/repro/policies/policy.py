"""Policy knobs and decision helpers for the maintenance loop."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING


if TYPE_CHECKING:
    from repro.group.info import GroupInfo
    from repro.group.replica import GroupReplica


@dataclass
class ScatterPolicy:
    """Declarative overlay policy.

    Resilience axis:

    - ``target_size`` — the group size the system steers toward; a group
      of k nodes tolerates floor((k-1)/2) simultaneous failures.
    - ``split_size`` — split a group once it exceeds this many members.
    - ``merge_size`` — seek a merge once it shrinks below this.
    - ``join_mode`` — where joining nodes are sent: ``smallest_group``
      (paper's resilience policy: shore up the most fragile group),
      ``random``, or ``largest_range``.

    Load axis:

    - ``split_key_mode`` — ``midpoint`` halves the key range;
      ``load_median`` halves observed per-key load (the paper's
      load-balance policy).

    Latency axis:

    - ``leader_mode`` — ``static`` keeps whatever leader Paxos elects;
      ``latency`` transfers leadership to the member whose fastest
      majority of peers is closest (minimizing commit round trips).
    - ``migrate_balance`` — oversized groups proactively migrate a
      member to the smallest known undersized group.

    Repair axis (self-healing under permanent node loss):

    - ``repair`` — when True, a group leader whose *live* membership has
      fallen below the repair floor heals the group: it pulls a spare
      node in from a healthy donor group (a migrate coordinated by the
      fragile group itself), or merges with its successor when no donor
      exists.  Off by default so existing runs are bit-identical.
    - ``repair_floor`` — the minimum live replication a group may sit at
      before repair kicks in; ``None`` means ``target_size``.
    """

    target_size: int = 5
    split_size: int = 9
    merge_size: int = 3
    join_mode: str = "smallest_group"
    split_key_mode: str = "midpoint"
    leader_mode: str = "static"
    # When True, oversized groups proactively migrate a member to the
    # smallest known undersized group instead of waiting for joins.
    migrate_balance: bool = False
    repair: bool = False
    repair_floor: int | None = None

    def __post_init__(self) -> None:
        if self.merge_size >= self.split_size:
            raise ValueError("merge_size must be < split_size")
        if self.repair_floor is not None and self.repair_floor < 1:
            raise ValueError("repair_floor must be >= 1")
        if self.join_mode not in ("smallest_group", "random", "largest_range"):
            raise ValueError(f"bad join_mode {self.join_mode}")
        if self.split_key_mode not in ("midpoint", "load_median"):
            raise ValueError(f"bad split_key_mode {self.split_key_mode}")
        if self.leader_mode not in ("static", "latency"):
            raise ValueError(f"bad leader_mode {self.leader_mode}")

    # ------------------------------------------------------------------
    # Join placement
    # ------------------------------------------------------------------
    def choose_join_target(
        self, candidates: list["GroupInfo"], rng: random.Random
    ) -> "GroupInfo | None":
        """Which group a joining node should reinforce (``join_mode``)."""
        if not candidates:
            return None
        if self.join_mode == "random":
            return rng.choice(candidates)
        if self.join_mode == "largest_range":
            return max(candidates, key=lambda g: (g.range.size(), g.gid))
        return min(candidates, key=lambda g: (len(g.members), g.gid))

    # ------------------------------------------------------------------
    # Group sizing
    # ------------------------------------------------------------------
    def wants_split(self, group: "GroupReplica") -> bool:
        """True when the group has grown past ``split_size``."""
        return len(group.members) >= self.split_size

    def wants_merge(self, group: "GroupReplica") -> bool:
        """True when the group has shrunk to ``merge_size`` or below."""
        return len(group.members) <= self.merge_size

    def choose_migration(
        self, group: "GroupReplica", known: list["GroupInfo"], rng: random.Random
    ) -> tuple[str, "GroupInfo"] | None:
        """(member, destination) to even out group sizes, or None.

        Fires only with ``migrate_balance``: the donor must exceed the
        target by 2+ (so donating cannot make *it* fragile) and the
        recipient must sit below target by 2+.
        """
        if not self.migrate_balance:
            return None
        if len(group.members) < self.target_size + 2:
            return None
        candidates = [
            info
            for info in known
            if info.gid != group.gid and len(info.members) <= self.target_size - 2
        ]
        if not candidates:
            return None
        destination = min(candidates, key=lambda g: (len(g.members), g.gid))
        movable = [m for m in group.members if m != group.paxos.replica_id]
        if not movable:
            return None
        return rng.choice(sorted(movable)), destination

    # ------------------------------------------------------------------
    # Repair (self-healing)
    # ------------------------------------------------------------------
    def effective_repair_floor(self) -> int:
        """The live-replication level below which repair engages."""
        return self.repair_floor if self.repair_floor is not None else self.target_size

    def choose_repair_donor(
        self, group: "GroupReplica", known: list["GroupInfo"]
    ) -> tuple[str, "GroupInfo"] | None:
        """(node, donor group) for a pull-in repair migrate, or None.

        A donor must sit strictly above the repair floor so donating
        cannot drag *it* below the floor, counting only its members that
        are not already in the fragile group: a view that lists one of
        ours is stale by exactly that member (it migrated here), and a
        donor picked on the strength of it refuses, every cooldown,
        until the view is refreshed.  Selection is deterministic: the
        largest (then lexicographically-first) donor, and its first
        spare member in sorted order — two leaders observing the same
        overlay state pick the same donor, so duplicate repairs target
        the same node and the second prepare is refused cleanly.
        """
        floor = self.effective_repair_floor()
        ours = set(group.members)
        candidates: list[tuple["GroupInfo", str]] = []
        for info in known:
            if info.gid == group.gid:
                continue
            spare = sorted(m for m in info.members if m not in ours)
            if len(spare) > floor:
                candidates.append((info, spare[0]))
        if not candidates:
            return None
        donor, node = max(candidates, key=lambda c: (len(c[0].members), c[0].gid))
        return node, donor

    def choose_split_key(self, group: "GroupReplica") -> int:
        """Where to cut the range: geometric middle or load median."""
        if self.split_key_mode == "load_median":
            key = _load_median(group)
            if key is not None:
                return key
        return group.range.midpoint()

    def partition_members(
        self, members: list[str], rng: random.Random
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Split a member list into two halves for the two new groups."""
        shuffled = sorted(members)
        rng.shuffle(shuffled)
        half = len(shuffled) // 2
        return tuple(sorted(shuffled[:half])), tuple(sorted(shuffled[half:]))

    # ------------------------------------------------------------------
    # Leader placement
    # ------------------------------------------------------------------
    def choose_leader(self, group: "GroupReplica", expected_latency) -> str | None:
        """Return a better leader than the current one, or None.

        ``expected_latency(a, b)`` estimates one-way latency between two
        nodes.  A commit needs acknowledgements from the fastest
        majority, so the figure of merit is the distance to the
        (majority-1)-th closest *other* member — a leader with a couple
        of nearby peers commits fast no matter how far the stragglers
        are.
        """
        if self.leader_mode != "latency":
            return None
        members = group.members
        if len(members) < 2:
            return None
        majority = len(members) // 2 + 1

        def quorum_latency(candidate: str) -> float:
            others = sorted(expected_latency(candidate, m) for m in members if m != candidate)
            return others[majority - 2]

        best = min(members, key=lambda m: (quorum_latency(m), m))
        current = group.paxos.replica_id
        if best == current:
            return None
        # Only transfer when the improvement is material (>5%), to avoid
        # flapping between near-equivalent members.
        if quorum_latency(best) > 0.95 * quorum_latency(current):
            return None
        return best


def _load_median(group: "GroupReplica") -> int | None:
    """Key that splits observed load in half, if enough signal exists."""
    if sum(group.load.values()) < 10:
        return None
    # Order keys along the arc starting at range.lo so wraparound ranges
    # accumulate in ring order.
    lo = group.range.lo
    ordered = sorted(group.load, key=lambda k: (k - lo) % (1 << 32))
    total = sum(group.load.values())
    acc = 0
    for key in ordered:
        acc += group.load[key]
        if acc * 2 >= total:
            candidate = key
            if candidate != group.range.lo and group.range.contains(candidate):
                return candidate
            return None
    return None
