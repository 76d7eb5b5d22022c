"""Precomputed ring routing table for large deployments.

The historical client lookup is linear: it scans the whole cache for a
group whose arc contains the key.  At the paper's scale (dozens of
groups) that is invisible; at the 2,000–10,000-node rings the scale
experiments run (E21), the per-operation scan *is* the hot path —
O(groups) ``KeyRange.contains`` calls per op.

:class:`RingTable` sorts group infos by arc start once and answers
lookups via ``bisect`` — O(log n) per key instead of O(n).  Tables are
immutable snapshots; the client rebuilds its table lazily after its
cache changes.

Semantics: for a *consistent* view (arcs tile the ring, no overlaps —
the steady state of a healthy deployment, and always true without
churn) ``lookup`` returns exactly the group whose arc contains the key,
i.e. the same group the linear scan finds.  With overlapping stale
views the linear scan returns whichever containing entry was cached
first while the table returns the containing entry whose arc starts
closest behind the key; either is a correct routing target (routing
treats every hint as a starting point, not truth), but the choice can
differ — which is why the table is opt-in (``ClientConfig.route_table``)
and the default path stays byte-identical to the historical one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from repro.dht.ring import KEY_SPACE
from repro.group.info import GroupInfo


class RingTable:
    """Immutable bisect-ready snapshot of a set of group infos.

    Entries are sorted by ``range.lo`` (ties keep first-seen order, so
    rebuilding from the same iterable is stable).  ``lookup`` finds the
    group whose arc starts closest at-or-behind the key — for a
    consistent tiling, the unique containing group.
    """

    __slots__ = ("_los", "_infos")

    def __init__(self, infos: Iterable[GroupInfo]) -> None:
        ordered = sorted(enumerate(infos), key=lambda p: (p[1].range.lo, p[0]))
        self._infos: list[GroupInfo] = [info for _, info in ordered]
        self._los: list[int] = [info.range.lo for info in self._infos]

    def lookup(self, key: int) -> GroupInfo | None:
        """The group whose arc starts closest at-or-behind ``key``.

        Wraps: a key below every arc start belongs to the last arc (the
        one wrapping through zero).  Returns None for an empty table.
        ``lookup(k).range.contains(k)`` holds whenever the entries tile
        the ring; callers that must tolerate gaps check containment and
        fall back (see ``ScatterClient._best_info``).
        """
        if not self._los:
            return None
        return self._infos[bisect_right(self._los, key % KEY_SPACE) - 1]
