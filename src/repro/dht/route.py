"""The client's routing rule: which cached group to ask for a key.

:func:`scan` is the rule: the first info, in cache order, whose arc
contains the key; when no arc contains it (a gap in a stale view), the
info whose arc starts closest behind the key, the first among equal
starts.  Routing treats the pick as a starting point, not truth.

:class:`RingTable` answers the rule for a whole cache.  When no two
cached arcs overlap (a tiling, gaps allowed: the steady state, and
every build of the large-ring runs) the containing arc is the one
starting closest behind the key, so the table is the arcs sorted by
start and ``lookup`` is one ``bisect``, O(log n) per key instead of
O(groups) ``KeyRange.contains`` calls.  Overlapping arcs appear only
while a client holds stale infos across splits and merges, in caches
of a few infos, and there ``lookup`` is the scan itself.  Tables are
immutable snapshots; the client rebuilds its table lazily after its
cache changes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from repro.dht.ring import KEY_SPACE, ring_distance
from repro.group.info import GroupInfo


def scan(infos: Sequence[GroupInfo], key: int) -> GroupInfo | None:
    """The routing pick for ``key`` among ``infos`` (None if empty)."""
    for info in infos:
        if info.range.contains(key):
            return info
    return min(infos, key=lambda info: ring_distance(info.range.lo, key), default=None)


class RingTable:
    """Immutable snapshot of an ordered set of group infos answering
    :func:`scan` for every key.

    With disjoint arcs ``_picks`` holds them sorted by start and
    ``_picks[i]`` answers every key in ``[_starts[i], _starts[i + 1])``,
    the last pick also the keys below ``_starts[0]``.  Otherwise
    ``_starts`` is None and ``_picks`` is the infos in cache order.
    """

    __slots__ = ("_starts", "_picks")

    def __init__(self, infos: Iterable[GroupInfo]) -> None:
        infos = list(infos)
        ordered = sorted(infos, key=_arc_start)
        if ordered and _disjoint(ordered):
            self._starts: list[int] | None = [info.range.lo for info in ordered]
            self._picks = ordered
        else:  # empty, or overlapping arcs
            self._starts, self._picks = None, infos

    def lookup(self, key: int) -> GroupInfo | None:
        """The routing pick for ``key``; None for an empty table."""
        if self._starts is None:
            return scan(self._picks, key)
        return self._picks[bisect_right(self._starts, key % KEY_SPACE) - 1]


def _arc_start(info: GroupInfo) -> int:
    return info.range.lo


def _disjoint(ordered: list[GroupInfo]) -> bool:
    """Do arcs sorted by start overlap nowhere on the ring?"""
    end = -1
    for info in ordered:
        lo, hi = info.range.lo, info.range.hi
        if lo < end:
            return False
        end = hi if hi > lo else hi + KEY_SPACE  # wrapping or full
    return end <= ordered[0].range.lo + KEY_SPACE
