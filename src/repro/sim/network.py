"""Simulated message network.

Endpoints register a handler under a string address.  ``send`` schedules
delivery after a latency sampled from the installed :class:`LatencyModel`.
The network models the failure modes the paper's protocols must tolerate:

- **Crash/churn**: a departed endpoint silently swallows messages (both
  inbound and, via :meth:`set_down`, outbound sends are suppressed).
- **Loss**: each message is independently dropped with ``drop_prob``.
- **Partitions**: arbitrary blocked endpoint pairs — symmetric via
  :meth:`block` or *one-way* via :meth:`block_one_way` (a node that can
  send but not receive, the asymmetric case naive fault tests miss).
- **Gray failure**: per-link latency multipliers (:meth:`set_link_slowdown`)
  model links that are degraded rather than dead — the hardest case for
  timeout-based failure detectors.
- **Duplication**: with ``dup_prob`` a delivered message is also delivered
  a second time after an independently sampled latency, modelling
  at-least-once transports and retransmission races.

All randomness comes from named simulator streams, so every fault
behaviour is deterministic in (seed, configuration).

Messages are delivered in timestamp order but *not* FIFO per link when the
latency model is non-constant — exactly the asynchrony Paxos must handle.

A message takes one of two routes, traced run or not: direct dispatch
(the run loop calls the destination handler itself) while no fault
feature is active, and the checked ``_deliver`` path while one is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappush
from typing import Any, Callable

from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.loop import Simulator

Handler = Callable[[str, Any], None]


@dataclass
class NetworkStats:
    """Counters for traffic accounting.

    A traced run reads them as ``net.*`` counters: ``net.sent`` per send
    (with ``net.msg.<Type>``, see ``Tracer.note_send``), the rest folded
    in as deltas whenever a run loop exits (``Tracer.flush``).
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    to_dead: int = 0
    duplicated: int = 0


class SimNetwork:
    """Best-effort asynchronous message network over a :class:`Simulator`."""

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        drop_prob: float = 0.0,
        dup_prob: float = 0.0,
    ) -> None:
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if not 0.0 <= dup_prob < 1.0:
            raise ValueError("dup_prob must be in [0, 1)")
        self.sim = sim
        self.latency = latency or ConstantLatency()
        self._drop_prob = drop_prob
        self._dup_prob = dup_prob
        self.stats = NetworkStats()
        self._handlers: dict[str, Handler] = {}
        self._down: set[str] = set()
        self._blocked_pairs: set[tuple[str, str]] = set()
        self._slowdowns: dict[tuple[str, str], float] = {}
        self._rng = sim.rng("net")
        # Cached from the simulator at construction (see repro.obs): None
        # when tracing is off, so the one per-send accounting site costs
        # an attribute load plus a falsy branch.  The tracer reads every
        # other counter from ``stats`` when a run loop exits.
        self._tracer = sim.tracer
        if self._tracer is not None:
            self._tracer.watch_network(self.stats)
        # Direct dispatch (see send) and the cached constant latency,
        # which skips the sample() call for models that draw no
        # randomness, are result-invisible: same sequence numbers, same
        # RNG draws, same delivery times, same handler calls as the
        # checked path — and any mutation that could make a delivery-time
        # check non-vacuous de-optimizes the in-flight entries (see
        # _deopt_in_flight).
        self._const_delay = (
            self.latency.latency if type(self.latency) is ConstantLatency else None
        )
        # Identity-stable hot references, bound once so the fast send
        # path pays one attribute hop instead of two (the handler dict,
        # event queue, and message pool are never replaced, only
        # mutated in place).
        self._handlers_get = self._handlers.get
        self._equeue = sim._queue
        self._pool = sim._msg_pool
        self._fault_free = False
        self._refresh_fast_path()

    # ------------------------------------------------------------------
    # Fault-free fast path bookkeeping
    # ------------------------------------------------------------------
    # ``send`` dispatches directly, skipping every fault check, while no
    # fault feature is active — the overwhelmingly common case in
    # scalability runs, traced or not.  The flag is recomputed on every
    # fault-state mutation, never per send.  A fault injected while a
    # message is in flight still applies (e.g. the destination crashes
    # before delivery): the mutation rewrites in-flight direct entries
    # into checked ones.  Both paths consume exactly the same RNG stream
    # with faults disabled (only the latency sample), so seeded runs are
    # bit-identical either way.
    def _refresh_fast_path(self) -> None:
        fault_free = not (
            self._drop_prob
            or self._dup_prob
            or self._down
            or self._blocked_pairs
            or self._slowdowns
        )
        if self._fault_free and not fault_free:
            self._deopt_in_flight()
        self._fault_free = fault_free

    def _fault_appeared(self) -> None:
        """A fault feature just became active: leave the fast path.

        Split from :meth:`_refresh_fast_path` so the O(n^2) ``block``
        storm of :meth:`partition` pays one heap scan, not one per pair.
        """
        if self._fault_free:
            self._deopt_in_flight()
            self._fault_free = False

    def _deopt_in_flight(self) -> None:
        """Rewrite in-flight direct-dispatch entries into checked deliveries.

        A direct entry bakes in the handler looked up at send time and
        skips every delivery-time check — valid only while nothing can
        change between send and delivery.  The moment a fault feature
        activates or the handler registry changes, each such entry is
        rewritten *in place* into a checked ``_deliver`` entry (same
        time, same sequence number, so heap order is untouched) whose
        checks run with delivery-time state.  Entries belonging to other
        networks on the same simulator are rewritten too — harmless, as
        ``_deliver`` is re-resolved per entry through its owning network.

        The scan is O(heap), but every call site is off the per-message
        path: the first fault mutation after a fast-path stretch (later
        mutations are guarded by ``_fault_free`` being already off) or a
        handler-registry change (``Node.leave`` / handler replacement —
        churn-rate events).
        """
        for entry in self.sim._queue._heap:
            if len(entry) == 7:
                args = entry[3]
                entry[3] = (args[0], entry[5], args[1])
                entry[2] = entry[6]._deliver
                del entry[4:]

    @property
    def drop_prob(self) -> float:
        return self._drop_prob

    @drop_prob.setter
    def drop_prob(self, value: float) -> None:
        if not 0.0 <= value < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        self._drop_prob = value
        self._refresh_fast_path()

    @property
    def dup_prob(self) -> float:
        return self._dup_prob

    @dup_prob.setter
    def dup_prob(self, value: float) -> None:
        if not 0.0 <= value < 1.0:
            raise ValueError("dup_prob must be in [0, 1)")
        self._dup_prob = value
        self._refresh_fast_path()

    # ------------------------------------------------------------------
    # Endpoint lifecycle
    # ------------------------------------------------------------------
    def register(self, address: str, handler: Handler) -> None:
        """Attach ``handler`` to ``address`` and mark it up."""
        if address in self._handlers:
            # Replacing a live handler: in-flight direct-dispatch
            # entries hold the old one; force them back through
            # _deliver, which re-resolves at delivery time.
            self._deopt_in_flight()
        self._handlers[address] = handler
        self._down.discard(address)
        self._refresh_fast_path()

    def unregister(self, address: str) -> None:
        if address in self._handlers:
            # Messages to the departed endpoint must count as to_dead at
            # delivery, not invoke the captured handler.
            self._deopt_in_flight()
        self._handlers.pop(address, None)
        self._down.discard(address)
        self._refresh_fast_path()

    def set_down(self, address: str) -> None:
        """Crash an endpoint: it neither sends nor receives until set_up."""
        self._down.add(address)
        self._fault_appeared()

    def set_up(self, address: str) -> None:
        self._down.discard(address)
        self._refresh_fast_path()

    def addresses(self) -> list[str]:
        return sorted(self._handlers)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def block(self, a: str, b: str) -> None:
        """Drop all traffic between ``a`` and ``b`` (both directions)."""
        self._blocked_pairs.add((a, b))
        self._blocked_pairs.add((b, a))
        self._fault_appeared()

    def unblock(self, a: str, b: str) -> None:
        self._blocked_pairs.discard((a, b))
        self._blocked_pairs.discard((b, a))
        self._refresh_fast_path()

    def block_one_way(self, src: str, dst: str) -> None:
        """Drop traffic from ``src`` to ``dst`` only (asymmetric partition).

        The reverse direction is untouched, so ``src`` can still *send* if
        blocked only as a receiver elsewhere — use two calls for the
        "can send but not receive" leader scenario.
        """
        self._blocked_pairs.add((src, dst))
        self._fault_appeared()

    def unblock_one_way(self, src: str, dst: str) -> None:
        self._blocked_pairs.discard((src, dst))
        self._refresh_fast_path()

    def isolate_inbound(self, victim: str, peers: list[str] | None = None) -> None:
        """Block all traffic *to* ``victim``: it can send but not receive."""
        for peer in peers if peers is not None else self.addresses():
            if peer != victim:
                self.block_one_way(peer, victim)

    def isolate_outbound(self, victim: str, peers: list[str] | None = None) -> None:
        """Block all traffic *from* ``victim``: it can receive but not send."""
        for peer in peers if peers is not None else self.addresses():
            if peer != victim:
                self.block_one_way(victim, peer)

    def partition(self, side_a: set[str], side_b: set[str]) -> None:
        """Block every cross pair between the two sides."""
        for a in side_a:
            for b in side_b:
                self.block(a, b)

    def heal(self) -> None:
        """Remove all partitions (one-way blocks included)."""
        self._blocked_pairs.clear()
        self._refresh_fast_path()

    # ------------------------------------------------------------------
    # Gray failure: per-link latency degradation
    # ------------------------------------------------------------------
    def set_link_slowdown(self, src: str, dst: str, factor: float) -> None:
        """Multiply sampled latency on the directed link ``src -> dst``.

        A factor of 1.0 clears the entry.  Slow links stay *connected* —
        messages arrive late rather than never, which defeats failure
        detectors that equate silence with death.
        """
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        if factor == 1.0:
            self._slowdowns.pop((src, dst), None)
        else:
            self._slowdowns[(src, dst)] = factor
        self._refresh_fast_path()

    def set_node_slowdown(self, victim: str, factor: float, peers: list[str] | None = None) -> None:
        """Degrade every link touching ``victim`` (both directions)."""
        for peer in peers if peers is not None else self.addresses():
            if peer != victim:
                self.set_link_slowdown(victim, peer, factor)
                self.set_link_slowdown(peer, victim, factor)

    def clear_slowdowns(self) -> None:
        self._slowdowns.clear()
        self._refresh_fast_path()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, msg: Any) -> None:
        """Send ``msg`` from ``src`` to ``dst`` with simulated latency.

        Loss, source death, and partitions are decided at send time;
        destination death is decided at delivery time (so a message can be
        lost when the destination crashes in flight — the realistic case).

        When no fault feature is active (no drops, dups, downed nodes,
        blocks, or slowdowns) and ``dst`` has a handler, delivery is
        direct dispatch and skips every check.  Both paths sample the
        same latency from the same RNG stream and take the same sequence
        number, so results are seed-identical.
        """
        stats = self.stats
        stats.sent += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.note_send(msg)
        if self._fault_free:
            # Direct dispatch: resolve the destination handler *now* and
            # schedule it as the event function itself, so delivery runs
            # the handler straight from the run loop with no _deliver
            # frame in between.  Entries are 7-slot lists (see
            # sim/loop.py) that the run loop recycles through
            # ``sim._msg_pool`` — zero allocations per message in steady
            # state.  Anything that could invalidate the baked-in handler
            # or skipped checks de-optimizes in-flight entries
            # (_deopt_in_flight).
            handler = self._handlers_get(dst)
            if handler is not None:
                sim = self.sim
                queue = self._equeue
                delay = self._const_delay
                if delay is None:
                    delay = self.latency.sample(src, dst, self._rng)
                seq = queue._seq
                pool = self._pool
                if pool:
                    entry = pool.pop()
                    args = entry[3]
                    args[0] = src
                    args[1] = msg
                    entry[0] = sim._now + delay
                    entry[1] = seq
                    entry[2] = handler
                    entry[5] = dst
                    if entry[6] is not self:
                        # Recycled from another network on this
                        # simulator (rare): retarget the bookkeeping
                        # slots.  Same-net reuse skips both stores.
                        entry[4] = stats
                        entry[6] = self
                    heappush(queue._heap, entry)
                else:
                    heappush(
                        queue._heap,
                        [sim._now + delay, seq, handler,
                         [src, msg], stats, dst, self],
                    )
                queue._seq = seq + 1
                queue._live += 1
                return
            # No handler at send time: the checked path below draws the
            # same latency and sequence number and counts to_dead at
            # delivery (the destination may also register in flight).
        if (
            src in self._down
            or (src, dst) in self._blocked_pairs
            or (self._drop_prob > 0 and self._rng.random() < self._drop_prob)
        ):
            stats.dropped += 1
            return
        self._schedule_delivery(src, dst, msg)
        if self._dup_prob > 0 and self._rng.random() < self._dup_prob:
            # A duplicate travels independently: its own latency sample,
            # so it may arrive before *or* after the original.
            stats.duplicated += 1
            self._schedule_delivery(src, dst, msg)

    def _schedule_delivery(self, src: str, dst: str, msg: Any) -> None:
        delay = self.latency.sample(src, dst, self._rng)
        factor = self._slowdowns.get((src, dst))
        if factor is not None:
            delay *= factor
        self.sim.schedule_fire(delay, self._deliver, src, dst, msg)

    def _deliver(self, src: str, dst: str, msg: Any) -> None:
        handler = self._handlers.get(dst)
        if handler is None or dst in self._down:
            self.stats.to_dead += 1
        elif (src, dst) in self._blocked_pairs:
            self.stats.dropped += 1
        else:
            self.stats.delivered += 1
            handler(src, msg)
