"""The simulator: a virtual clock plus the event loop that advances it."""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, Iterator

from repro.obs.runtime import current_tracer
from repro.sim.events import EventHandle, EventQueue

# The run loops index heap entries with literal ints rather than the
# named constants from repro.sim.events: a LOAD_GLOBAL per access is
# measurable at millions of events per second.  Layout: [time, seq, fn,
# args] with fn None once cancelled or popped (see events.py).
#
# Direct-dispatch delivery entries (SimNetwork's send while no fault is
# active, traced or not) are 7-slot lists
# [time, seq, handler, [src, msg], stats, dst, net]: the event function
# IS the destination handler, so a message delivery runs straight from
# the loop with no network frame in between.  Because ``seq`` is unique,
# heap comparison never reads past index 1, so the extra slots are inert.
# The loop finishes the network's bookkeeping (stats.delivered) after
# the handler returns and recycles the entry into ``Simulator._msg_pool``
# with its argument slots cleared, so message objects are not pinned
# and steady-state delivery allocates nothing.  All of it is invisible
# to simulation results: a direct entry consumes the same sequence
# number, sorts identically, and runs the same handler at the same time
# as a checked _deliver entry; SimNetwork de-optimizes in-flight
# entries whenever a delivery-time check could become non-vacuous.  A
# tracer sees the delivery through ``stats`` when the loop exits
# (``Tracer.flush``), never per event.

# Upper bound on recycled delivery entries kept around; beyond this the
# pool stops growing and entries fall back to the garbage collector.
# Bounds memory at ~peak in-flight messages, not total messages.
_MSG_POOL_CAP = 8192

# Collector thresholds while a simulation runs or a deployment is built.
# A finished op is freed by reference count (net/futures.py), so a young
# collection finds nothing: it only promotes what happens to be alive,
# and CPython answers a stream of promoted timers and heap entries with
# full passes over a deployment that never changes (0.2 s each at 2,000
# nodes).  Generation 0 was chosen by sweep on the ledger workloads
# (seed 1, --seconds 4; harness.gc_share, which repeats to +-0.005).
# CPython's 700 / 10,000 / 100,000 / 1,000,000 gave ring_2000 0.160 /
# 0.053 / 0.025 / 0.025, kv_mixed 0.044 / 0.021 / 0.010 / 0.010 and
# churn_recover 0.039 / 0.048 / 0.024 / 0.025, with peak RSS equal at
# every setting: 100,000 is where it stops paying, and it bounds what a
# reintroduced per-op cycle could pile up between passes to about
# 10 MB.  Generations 1 and 2 keep CPython's defaults, so a full
# collection still comes, once per hundred young ones; that is what
# reclaims a retired replica in a long churn run.
_PACED_GC = (100_000, 10, 10)


@contextmanager
def paced_gc() -> Iterator[None]:
    """Run the body under ``_PACED_GC``; restore the caller's thresholds after.

    Nested use (a handler calling ``run_until``, a builder warming its
    deployment up) finds the paced thresholds already in force and
    leaves them alone, so only the outermost scope restores.
    """
    caller = gc.get_threshold()
    if caller == _PACED_GC:
        yield
        return
    gc.set_threshold(*_PACED_GC)
    try:
        yield
    finally:
        gc.set_threshold(*caller)


class Simulator:
    """Single-threaded virtual-time event loop.

    All components in a simulation share one ``Simulator``.  Time is a
    float in seconds and only moves forward when the loop dequeues the
    next event.  Randomness is obtained through :meth:`rng`, which hands
    out independent, deterministically seeded streams keyed by name, so
    adding a new consumer of randomness never perturbs existing streams.

    The run loops (:meth:`run`, :meth:`run_until`) operate directly on
    the event heap with no per-event method call — at millions of events
    per run that overhead is the dominant cost, and the ``repro.perf``
    microbenchmarks track exactly this.  :meth:`step` is ``run`` capped
    at one event.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._now = 0.0
        self._queue = EventQueue()
        self._rngs: dict[str, random.Random] = {}
        self._stopped = False
        self._events_processed = 0
        # Recycled 7-slot direct-dispatch delivery entries (see module
        # comment).  Shared by every network bound to this simulator;
        # only the run loops below ever refill it.
        self._msg_pool: list[list] = []
        # Ambient tracing hookup (repro.obs): consulted exactly once, at
        # construction.  ``tracer`` is None in the untraced default, so
        # every instrumented call site in the stack reduces to one
        # attribute load plus a falsy branch.
        self.tracer = current_tracer()
        if self.tracer is not None:
            self.tracer.bind(self)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng(self, stream: str) -> random.Random:
        """Return the named deterministic random stream.

        The stream's seed derives from (simulator seed, stream name), so
        two simulations with the same seed see identical streams
        regardless of creation order.
        """
        if stream not in self._rngs:
            # random.Random accepts arbitrary hashable seeds but hash() of
            # str is salted per-process; derive a stable integer instead.
            derived = _stable_hash(f"{self.seed}:{stream}")
            self._rngs[stream] = random.Random(derived)
        return self._rngs[stream]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self._queue.push(self._now + delay, fn, args)

    def schedule_fire(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Like :meth:`schedule` but fire-and-forget: no cancellation handle.

        Use for events that are never cancelled (message deliveries,
        one-shot continuations) — it skips the ``EventHandle`` allocation
        on the simulator's hottest path while consuming the same sequence
        number, so interleaving with handle-based scheduling is
        unchanged.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        # Inlined EventQueue.push_fire: this is the hottest scheduling
        # call in the simulator and the extra frame is measurable.
        queue = self._queue
        heappush(queue._heap, [self._now + delay, queue._seq, fn, args])
        queue._seq += 1
        queue._live += 1

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        return self._queue.push(time, fn, args)

    def call_soon(self, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at the current time, after pending same-time events."""
        return self._queue.push(self._now, fn, args)

    def call_soon_fire(self, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`call_soon` (no handle allocation)."""
        queue = self._queue
        heappush(queue._heap, [self._now, queue._seq, fn, args])
        queue._seq += 1
        queue._live += 1

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process one event.  Returns False when the queue is empty."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed > before

    def run(self, max_events: int | None = None) -> None:
        """Run until the queue drains (or ``max_events`` is hit)."""
        self._stopped = False
        queue = self._queue
        heap = queue._heap
        pop = heappop
        pool = self._msg_pool
        cap = _MSG_POOL_CAP
        size = len
        # Folding the no-limit case into an unreachable bound keeps the
        # per-event limit check to a single comparison.
        limit = float("inf") if max_events is None else max_events
        # The processed/live counters are accumulated locally and flushed
        # additively in ``finally``, so nested run loops (an event handler
        # calling run_until) and raising handlers stay consistent.
        processed = 0
        with paced_gc():
            try:
                while heap and not self._stopped:
                    if processed >= limit:
                        return
                    entry = pop(heap)
                    fn = entry[2]
                    if fn is None:
                        continue
                    entry[2] = None
                    processed += 1
                    self._now = entry[0]
                    # Direct-dispatch delivery entries (7-slot; see module
                    # comment): call the handler through the specialized
                    # two-positional-arg path (fn(*args) compiles to the
                    # slow CALL_FUNCTION_EX), then complete the network's
                    # delivered accounting and recycle the entry.  Only
                    # after a clean return — a raising handler leaves the
                    # count untouched and the entry to the GC.
                    if size(entry) == 7:
                        args = entry[3]
                        fn(args[0], args[1])
                        entry[4].delivered += 1
                        if size(pool) < cap:
                            args[0] = args[1] = None
                            pool.append(entry)
                    else:
                        fn(*entry[3])
            finally:
                queue._live -= processed
                self._events_processed += processed
                if self.tracer is not None:
                    self.tracer.flush(processed)

    def run_until(self, time: float) -> None:
        """Run events with timestamp <= ``time``; leave the clock at ``time``.

        Advancing the clock to exactly ``time`` even when the queue holds
        no event at that instant keeps back-to-back ``run_until`` calls
        composable.
        """
        self._stopped = False
        queue = self._queue
        heap = queue._heap
        pop = heappop
        pool = self._msg_pool
        cap = _MSG_POOL_CAP
        size = len
        processed = 0
        with paced_gc():
            try:
                while heap and not self._stopped:
                    entry = heap[0]
                    fn = entry[2]
                    if fn is None:
                        pop(heap)
                        continue
                    if entry[0] > time:
                        break
                    pop(heap)
                    entry[2] = None
                    processed += 1
                    self._now = entry[0]
                    if size(entry) == 7:
                        args = entry[3]
                        fn(args[0], args[1])
                        entry[4].delivered += 1
                        if size(pool) < cap:
                            args[0] = args[1] = None
                            pool.append(entry)
                    else:
                        fn(*entry[3])
            finally:
                queue._live -= processed
                self._events_processed += processed
                if self.tracer is not None:
                    self.tracer.flush(processed)
        if self._now < time:
            self._now = time

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` seconds of virtual time from now."""
        self.run_until(self._now + duration)

    def stop(self) -> None:
        """Make the innermost run loop return after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        return len(self._queue)


def _stable_hash(text: str) -> int:
    """Process-independent 64-bit hash (FNV-1a) for seed derivation."""
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value
