"""Per-replica Paxos log: accepted entries, chosen entries, commit index."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.consensus.single import Ballot


@dataclass
class LogEntry:
    """State of one log slot on one replica."""

    accepted_ballot: Ballot | None = None
    accepted_value: Any = None
    chosen: bool = False

    @property
    def value(self) -> Any:
        return self.accepted_value


class PaxosLog:
    """Sparse log keyed by slot (slots start at 0).

    ``commit_index`` is the highest slot N such that slots 0..N are all
    chosen — the prefix that may be applied to the state machine.  It is
    -1 when nothing is chosen.
    """

    def __init__(self) -> None:
        self._entries: dict[int, LogEntry] = {}
        # Highest slot holding an entry (-1 when none).  Every entry
        # lies in [first_slot, _top], so the scans below walk that range
        # (a few in-flight slots on the read path) rather than sorting
        # or filtering every retained key.
        self._top = -1
        self.commit_index = -1
        # Slots below first_slot were compacted into a snapshot; their
        # entries are gone but remain (by construction) chosen/applied.
        self.first_slot = 0
        # Optional hook called as observer(slot, value) the first time a
        # slot is marked chosen.  The durable-storage model uses it to
        # journal choices into the WAL; None (the default) costs one
        # attribute test and nothing else.
        self.observer = None

    def entry(self, slot: int) -> LogEntry:
        if slot < self.first_slot:
            raise KeyError(f"slot {slot} compacted away (first_slot={self.first_slot})")
        e = self._entries.get(slot)
        if e is None:
            e = self._entries[slot] = LogEntry()
            if slot > self._top:
                self._top = slot
        return e

    def truncate_before(self, slot: int) -> None:
        """Discard entries below ``slot`` (they live on in a snapshot).

        Only committed prefixes may be compacted.
        """
        if slot > self.commit_index + 1:
            raise ValueError(f"cannot compact past commit index ({slot} > {self.commit_index + 1})")
        self._drop_below(slot)

    def reset_to(self, slot: int) -> None:
        """Jump forward after installing a snapshot covering [0, slot).

        Unlike :meth:`truncate_before`, the local commit index may be far
        behind: the snapshot vouches for the whole dropped prefix.
        """
        self._drop_below(slot)

    def _drop_below(self, slot: int) -> None:
        for s in range(self.first_slot, min(slot, self._top + 1)):
            self._entries.pop(s, None)
        if slot > self._top:
            self._top = -1  # nothing retained
        self.first_slot = max(self.first_slot, slot)
        self.commit_index = max(self.commit_index, self.first_slot - 1)
        # Re-extend over any retained chosen entries beyond the jump.
        while self.is_chosen(self.commit_index + 1):
            self.commit_index += 1

    def get(self, slot: int) -> LogEntry | None:
        return self._entries.get(slot)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def max_slot(self) -> int:
        """Highest slot with any accepted/chosen entry, or -1."""
        return self._top

    def is_chosen(self, slot: int) -> bool:
        if slot < self.first_slot:
            return True  # compacted prefix is chosen by construction
        e = self._entries.get(slot)
        return e is not None and e.chosen

    def chosen_value(self, slot: int) -> Any:
        e = self._entries.get(slot)
        if e is None or not e.chosen:
            raise KeyError(f"slot {slot} not chosen")
        return e.accepted_value

    def mark_chosen(self, slot: int, value: Any) -> None:
        """Record that ``value`` was chosen at ``slot`` and advance commit.

        A chosen value is immutable; marking a slot chosen with a
        different value indicates a protocol bug and raises.
        """
        if slot < self.first_slot:
            return  # already compacted: necessarily chosen and applied
        e = self.entry(slot)
        if e.chosen and e.accepted_value != value:
            raise AssertionError(
                f"slot {slot}: chosen value changed {e.accepted_value!r} -> {value!r}"
            )
        newly_chosen = not e.chosen
        e.chosen = True
        e.accepted_value = value
        if newly_chosen and self.observer is not None:
            self.observer(slot, value)
        while self.is_chosen(self.commit_index + 1):
            self.commit_index += 1

    def accepted_from(self, from_slot: int) -> list[tuple[int, Ballot, Any]]:
        """(slot, ballot, value) for accepted entries at or after from_slot."""
        out = []
        get = self._entries.get
        for slot in range(max(from_slot, self.first_slot), self._top + 1):
            e = get(slot)
            if e is not None and e.accepted_ballot is not None:
                out.append((slot, e.accepted_ballot, e.accepted_value))
        return out

    def pending_values(self, from_slot: int) -> list[Any]:
        """Values of accepted *or* chosen entries at or after ``from_slot``.

        The follower-read local conflict window: everything this
        replica knows may commit (or has committed) above its applied
        prefix, whether learned through an Accept or through catch-up.
        Walks slots ``[from_slot, top]`` in order, holes skipped, so a
        read pays for the window and not for the retained log.
        """
        out = []
        get = self._entries.get
        for slot in range(max(from_slot, self.first_slot), self._top + 1):
            e = get(slot)
            if e is not None and (e.chosen or e.accepted_ballot is not None):
                out.append(e.accepted_value)
        return out

    def commit_window(self, tail: int) -> tuple[int, int]:
        """[lo, hi] slot bounds of the last ``tail`` committed slots.

        Read-only helper for invariant checkers (``repro.check``): two
        replicas' overlapping commit windows bound the slots on which
        prefix agreement can be compared without touching compacted or
        uncommitted state.
        """
        hi = self.commit_index
        lo = max(self.first_slot, hi - tail + 1)
        return lo, hi

    def chosen_range(self, from_slot: int, to_slot: int) -> list[tuple[int, Any]]:
        """Chosen (slot, value) pairs in [from_slot, to_slot]."""
        out = []
        for slot in range(from_slot, to_slot + 1):
            e = self._entries.get(slot)
            if e is not None and e.chosen:
                out.append((slot, e.accepted_value))
        return out
