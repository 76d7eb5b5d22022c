"""Event heap for the discrete-event simulator.

Events are ordered by (time, sequence).  The sequence number guarantees a
total, deterministic order even when many events share a timestamp, which
is common (e.g. a batch of messages delivered with constant latency).

Heap entries are plain lists ``[time, seq, fn, args]`` rather than
objects: list comparison orders by (time, seq), and because ``seq`` is
unique the comparison never reaches the non-orderable ``fn`` slot.  This
shaves an allocation plus attribute dispatch off every scheduled event —
the hottest path in the whole simulator.

Cancellation is lazy: cancelling (or popping) an entry nulls its ``fn``
slot in place and the heap skips such entries when they surface.  A
popped entry is indistinguishable from a cancelled one, which makes
cancel-after-fire a natural no-op.  Cancelling also empties the
``args`` slot, so a cancelled event pins nothing while it waits to
surface.

Scheduling comes in two flavours:

- :meth:`EventQueue.push` returns an :class:`EventHandle` for callers
  that may cancel (timers, RPC timeouts).
- :meth:`EventQueue.push_fire` is fire-and-forget: no handle object is
  allocated at all — the right choice for the overwhelmingly common
  never-cancelled case (message deliveries, process resumptions).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

# Indices into a heap entry [time, seq, fn, args].
TIME, SEQ, FN, ARGS = 0, 1, 2, 3

# A heap entry; fn is None once cancelled or popped.
Entry = list


class EventHandle:
    """Cancellation token for a scheduled event.

    ``cancelled`` is True once the event can no longer fire — either
    because :meth:`cancel` was called or because it already fired.
    """

    __slots__ = ("_entry", "_queue")

    def __init__(self, entry: Entry, queue: "EventQueue") -> None:
        self._entry = entry
        self._queue = queue

    @property
    def time(self) -> float:
        return self._entry[TIME]

    @property
    def cancelled(self) -> bool:
        return self._entry[FN] is None

    def cancel(self, _future: Any = None) -> None:
        """Prevent the event from firing.  Idempotent; no-op after fire.

        The ignored argument lets a bound ``cancel`` be a
        :class:`~repro.net.futures.Future` callback.
        """
        entry = self._entry
        if entry[FN] is not None:
            entry[FN] = None
            entry[ARGS] = ()
            self._queue._live -= 1


class EventQueue:
    """Min-heap of events with lazy deletion of cancelled entries."""

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, fn: Callable[..., None], args: tuple[Any, ...] = ()) -> EventHandle:
        """Schedule ``fn(*args)`` at ``time``; returns a cancellation handle."""
        entry = [time, self._seq, fn, args]
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, entry)
        return EventHandle(entry, self)

    def push_fire(self, time: float, fn: Callable[..., None], args: tuple[Any, ...] = ()) -> None:
        """Fire-and-forget schedule: no handle, cannot be cancelled.

        Consumes a sequence number exactly like :meth:`push`, so mixing
        the two paths preserves the global (time, seq) order — a
        fire-and-forget event scheduled after a handle-based one at the
        same timestamp still fires after it.
        """
        heapq.heappush(self._heap, [time, self._seq, fn, args])
        self._seq += 1
        self._live += 1

    def pop(self) -> tuple[float, Callable[..., None], tuple[Any, ...]] | None:
        """Remove and return ``(time, fn, args)`` of the earliest live event.

        Returns None if the queue holds no live events.  The popped entry
        is neutralized in place so a late ``EventHandle.cancel`` is a
        no-op.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            fn = entry[FN]
            if fn is None:
                continue
            entry[FN] = None
            self._live -= 1
            return entry[TIME], fn, entry[ARGS]
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][FN] is None:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][TIME]
