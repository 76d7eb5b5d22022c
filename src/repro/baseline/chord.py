"""Chord-style DHT with successor-list replication (no consensus).

This is the baseline the paper's motivation measures: a well-implemented
peer-to-peer key-value store in the OpenDHT mold.  Every standard
mechanism is here — finger tables for O(log n) lookups, successor lists
for fault tolerance, periodic stabilization, key handoff on membership
change, and replica repair — and yet, because ownership is decided by
each node's *local* view of the ring, churn opens windows where two
nodes both believe they own a key, where an acked write lands on a node
about to lose ownership, or where a departed owner takes the newest
value with it.  Those windows are precisely the inconsistency the
experiments quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dht.ring import KEY_SPACE, hash_key
from repro.net.futures import Future, RpcError, RpcTimeout, spawn
from repro.net.node import Node
from repro.net.retry import decorrelated_jitter
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.store.kvstore import KvResult

KEY_BITS = 32


def in_interval(x: int, lo: int, hi: int, inclusive_hi: bool = False) -> bool:
    """Is x in the clockwise interval (lo, hi) / (lo, hi] on the ring?

    Chord convention: when lo == hi the interval spans the whole circle,
    so (a, a] contains everything and (a, a) everything except a.
    """
    x, lo, hi = x % KEY_SPACE, lo % KEY_SPACE, hi % KEY_SPACE
    if lo == hi:
        return True if inclusive_hi else x != lo
    if lo < hi:
        return (lo < x < hi) or (inclusive_hi and x == hi)
    return x > lo or x < hi or (inclusive_hi and x == hi)


@dataclass
class ChordConfig:
    stabilize_interval: float = 0.5
    fix_fingers_interval: float = 0.5
    repair_interval: float = 2.0
    successor_list_len: int = 4
    replication: int = 3
    rpc_timeout: float = 0.5
    # Zave/Leslie hardening.  When True the maintenance protocol follows
    # "How to Make Chord Correct": failure-atomic pointer updates (a
    # candidate successor is probed before adoption; the old chain stays
    # usable until the new pointer is proven live), in-tick successor
    # failover down the full list, and rectify semantics on notify (a
    # dead predecessor is replaced, not just cleared) — plus Leslie-style
    # replica maintenance (immediate re-replication when the successor
    # list changes) and decorrelated jitter on every maintenance timer.
    # Off by default: the naive protocol *is* the measured baseline in
    # E1/E2 and the old-baseline leg of E18.
    hardened: bool = False


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ClosestReq:
    key: int


@dataclass(frozen=True)
class ClosestResp:
    done: bool
    node: str  # owner if done, else next hop
    successors: tuple[str, ...] = ()


@dataclass(frozen=True)
class StabilizeReq:
    pass


@dataclass(frozen=True)
class StabilizeResp:
    predecessor: str | None
    successors: tuple[str, ...]


@dataclass(frozen=True)
class NotifyMsg:
    pass


@dataclass(frozen=True)
class PutReq:
    key: int
    value: object
    stamp: float


@dataclass(frozen=True)
class GetReq:
    key: int


@dataclass(frozen=True)
class OpResp:
    ok: bool
    value: object = None
    version: int = 0
    error: str | None = None


@dataclass(frozen=True)
class ReplicaPush:
    items: tuple[tuple[int, object, float, int], ...]  # (key, value, stamp, version)


@dataclass
class _Stored:
    value: object
    stamp: float
    version: int


class ChordNode(Node):
    """One Chord peer."""

    def __init__(
        self,
        node_id: str,
        sim: Simulator,
        net: SimNetwork,
        config: ChordConfig | None = None,
    ) -> None:
        super().__init__(node_id, sim, net)
        self.config = config or ChordConfig()
        self.ring_id = hash_key(node_id)
        self.successors: list[str] = [node_id]
        self.predecessor: str | None = None
        self.fingers: dict[int, str] = {}
        self._next_finger = 0
        self.store: dict[int, _Stored] = {}
        self._ring_ids: dict[str, int] = {node_id: self.ring_id}
        self._rng = sim.rng(f"chord:{node_id}")
        # Hardened-mode state: per-timer decorrelated-jitter cursors and
        # the replica set last pushed to (for change-triggered re-
        # replication).  Inert in the naive baseline.
        self._jitter_prev: dict[str, float] = {}
        self._last_replicas: tuple[str, ...] | None = None
        self._seed_provider: Callable[[], list[str]] | None = None
        self._rejoining = False

    # ------------------------------------------------------------------
    # Ring arithmetic
    # ------------------------------------------------------------------
    def rid(self, name: str) -> int:
        if name not in self._ring_ids:
            self._ring_ids[name] = hash_key(name)
        return self._ring_ids[name]

    @property
    def successor(self) -> str:
        return self.successors[0] if self.successors else self.node_id

    def owns(self, key: int) -> bool:
        """Key in (predecessor, self] by this node's local view."""
        if self.predecessor is None:
            return True
        return in_interval(key, self.rid(self.predecessor), self.ring_id, inclusive_hi=True)

    def closest_preceding(self, key: int) -> str:
        """Best local hop toward ``key``: fingers then successors."""
        best = self.node_id
        for candidate in list(self.fingers.values()) + self.successors:
            if candidate == self.node_id:
                continue
            if in_interval(self.rid(candidate), self.ring_id, key):
                if best == self.node_id or in_interval(self.rid(candidate), self.rid(best), key):
                    best = candidate
        return best

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.set_timer(self._rng.uniform(0, self.config.stabilize_interval), self._stabilize_tick)
        self.set_timer(
            self._rng.uniform(0, self.config.fix_fingers_interval), self._fix_fingers_tick
        )
        self.set_timer(self._rng.uniform(0, self.config.repair_interval), self._repair_tick)
        self.set_timer(
            self._rng.uniform(0, self.config.stabilize_interval), self._check_pred_tick
        )

    def on_restart(self) -> None:
        # crash() cancelled the maintenance timers; resume them so a
        # restarted node rejoins stabilization instead of going zombie.
        self.start()

    def _arm(self, name: str, interval: float, fn: Callable[[], None]) -> None:
        """Re-arm a maintenance timer.

        Naive mode keeps the fixed cadence the baseline was measured
        with.  Hardened mode draws a decorrelated-jitter delay per timer
        (bounded to [interval/2, 3*interval/2]) so a cohort of nodes
        that started in phase — or restarted together after a fault —
        does not stabilize in lockstep and repeatedly sample each other
        mid-update.
        """
        if self.config.hardened:
            delay = decorrelated_jitter(
                self._rng,
                interval * 0.5,
                interval * 1.5,
                self._jitter_prev.get(name),
            )
            self._jitter_prev[name] = delay
            self.set_timer(delay, fn)
        else:
            self.set_timer(interval, fn)

    def _check_pred_tick(self) -> None:
        """Clear a dead predecessor so stale pointers stop circulating."""
        pred = self.predecessor
        if pred is not None:
            future = self.request(pred, StabilizeReq(), timeout=self.config.rpc_timeout)

            def on_done(f: Future) -> None:
                if self.alive and f.exception is not None and self.predecessor == pred:
                    self.predecessor = None

            future.add_callback(on_done)
        self._arm("check_pred", self.config.stabilize_interval, self._check_pred_tick)

    def join(self, seed: str, seed_provider: Callable[[], list[str]] | None = None) -> Future:
        """Join the ring via ``seed``: find our successor and stabilize in."""
        self._seed_provider = seed_provider
        return spawn(self.sim, self._join_proc(seed, seed_provider))

    def _join_proc(self, seed: str, seed_provider: Callable[[], list[str]] | None = None):
        while self.alive:
            try:
                owner = yield from _lookup(self, seed, self.ring_id)
            except _LookupFailed:
                # A joiner whose single contact died would otherwise spin
                # on the corpse forever and never enter the ring.  Zave's
                # model assumes a bootstrap *set*; hardened mode honours
                # that by re-drawing a contact after a failed attempt.
                if self.config.hardened and seed_provider is not None:
                    alive = [n for n in seed_provider() if n != self.node_id]
                    if alive:
                        seed = self.sim.rng(f"join-{self.node_id}").choice(alive)
                yield _sleep(self.sim, 0.5)
                continue
            if owner == self.node_id:
                yield _sleep(self.sim, 0.5)
                continue
            self.successors = [owner]
            self.send(owner, NotifyMsg())
            return owner
        return None

    # ------------------------------------------------------------------
    # Stabilization (the heart of Chord's self-organization)
    # ------------------------------------------------------------------
    def _stabilize_tick(self) -> None:
        succ = self.successor
        if succ != self.node_id:
            future = self.request(succ, StabilizeReq(), timeout=self.config.rpc_timeout)
            future.add_callback(lambda f: self._after_stabilize(succ, f))
        self._arm("stabilize", self.config.stabilize_interval, self._stabilize_tick)

    def _after_stabilize(self, succ: str, future: Future) -> None:
        if not self.alive:
            return
        if future.exception is not None:
            # Successor unresponsive: fail over to the next in the list.
            if self.config.hardened:
                self._fail_over(succ)
                return
            if len(self.successors) > 1:
                self.successors.pop(0)
            else:
                self.successors = [self.node_id]
            return
        resp = future.result()
        # Successor's predecessor may sit between us: it is our truer
        # successor.  Zave: adopting it *unverified* breaks the ring when
        # it is already dead — the naive protocol does exactly that and
        # then points its whole refreshed chain through the corpse.
        cand = resp.predecessor
        if cand is not None and cand != self.node_id and in_interval(
            self.rid(cand), self.ring_id, self.rid(succ)
        ):
            if self.config.hardened:
                self._verify_candidate(cand, succ, resp)
                return
            self.successors = [cand] + self.successors
        self._absorb_successors(self.successor, resp)

    def _fail_over(self, dead: str) -> None:
        """Hardened: drop a dead successor and probe the next *now*.

        The naive baseline waits a full stabilize interval per dead list
        entry, so k consecutive failures take k rounds to route around.
        Failure-atomic pointer update walks the list within one tick,
        bounded by the list length.
        """
        if self.successors and self.successors[0] == dead:
            if len(self.successors) > 1:
                self.successors.pop(0)
            else:
                self.successors = [self.node_id]
                self._recover_successor()
            self._maybe_rereplicate()
        succ = self.successor
        if succ != self.node_id:
            future = self.request(succ, StabilizeReq(), timeout=self.config.rpc_timeout)
            future.add_callback(lambda f: self._after_stabilize(succ, f))

    def _recover_successor(self) -> None:
        """Zave: never run with yourself as sole successor in a ring
        that has other members.

        A node in that state claims the whole circle in
        ``_on_closest`` and black-holes every lookup routed to it —
        "I own everything, I hold nothing".  It happens when the last
        live entry in a short successor list dies (the canonical case
        is a fresh joiner whose single contact dies before
        stabilization widens the list).  Fall back to the predecessor
        (ring-of-two repair: stabilization walks the pointer to the
        right place) and, with no predecessor either, re-join through
        a fresh contact.
        """
        if self.predecessor is not None and self.predecessor != self.node_id:
            self.successors = [self.predecessor]
            return
        if self._seed_provider is None or self._rejoining:
            return
        alive = [n for n in self._seed_provider() if n != self.node_id]
        if not alive:
            return
        self._rejoining = True
        seed = self.sim.rng(f"join-{self.node_id}").choice(alive)
        future = spawn(self.sim, self._join_proc(seed, self._seed_provider))
        future.add_callback(lambda f: setattr(self, "_rejoining", False))

    def _verify_candidate(self, cand: str, succ: str, resp: StabilizeResp) -> None:
        """Hardened: probe a candidate successor before adopting it.

        On proof of life we adopt it *with its own fresh successor
        chain*; if it is dead the old pointer stays in place untouched
        (failure atomicity: no intermediate state where the ring routes
        through an unverified node).
        """
        future = self.request(cand, StabilizeReq(), timeout=self.config.rpc_timeout)

        def on_done(f: Future) -> None:
            if not self.alive:
                return
            if f.exception is None:
                self.successors = [cand] + self.successors
                self._absorb_successors(cand, f.result())
            else:
                self._absorb_successors(succ, resp)

        future.add_callback(on_done)

    def _absorb_successors(self, head: str, resp: StabilizeResp) -> None:
        """Refresh the successor list as ``head`` followed by its chain."""
        chain = [head] + [s for s in resp.successors if s != self.node_id]
        deduped: list[str] = []
        for name in chain:
            if name not in deduped:
                deduped.append(name)
        self.successors = deduped[: self.config.successor_list_len]
        self.send(self.successor, NotifyMsg())
        if self.config.hardened:
            self._maybe_rereplicate()

    def _on_stabilize(self, src: str, msg: StabilizeReq) -> StabilizeResp:
        return StabilizeResp(predecessor=self.predecessor, successors=tuple(self.successors))

    def _on_notify(self, src: str, msg: NotifyMsg) -> None:
        if self.predecessor is None or in_interval(
            self.rid(src), self.rid(self.predecessor), self.ring_id
        ):
            old = self.predecessor
            self.predecessor = src
            self._handoff_keys_to(src, old)
        elif self.config.hardened and src != self.predecessor:
            # Zave's rectify: a notify from *behind* our predecessor is
            # evidence the ring shrank.  Probe the incumbent; if it is
            # dead, replace it with the notifier instead of waiting for
            # the periodic check to merely clear it.  Ownership only
            # grows ((src, self] ⊇ (pred, self]), so no handoff needed.
            pred = self.predecessor
            future = self.request(pred, StabilizeReq(), timeout=self.config.rpc_timeout)

            def on_done(f: Future) -> None:
                if self.alive and f.exception is not None and self.predecessor == pred:
                    self.predecessor = src

            future.add_callback(on_done)

    def _handoff_keys_to(self, new_pred: str, old_pred: str | None) -> None:
        """A new predecessor owns part of our key range: push it over."""
        lo = self.rid(old_pred) if old_pred is not None else self.rid(new_pred)
        items = []
        for key, stored in self.store.items():
            if in_interval(key, lo, self.rid(new_pred), inclusive_hi=True) or (
                old_pred is None and not self.owns(key)
            ):
                items.append((key, stored.value, stored.stamp, stored.version))
        if items:
            self.send(new_pred, ReplicaPush(items=tuple(items)))

    def _fix_fingers_tick(self) -> None:
        i = self._next_finger
        self._next_finger = (self._next_finger + 1) % KEY_BITS
        target = (self.ring_id + (1 << i)) % KEY_SPACE
        spawn(self.sim, self._fix_finger(i, target))
        self._arm("fix_fingers", self.config.fix_fingers_interval, self._fix_fingers_tick)

    def _fix_finger(self, i: int, target: int):
        try:
            owner = yield from _lookup(self, self.node_id, target)
        except _LookupFailed:
            return
        if self.alive:
            self.fingers[i] = owner

    def _repair_tick(self) -> None:
        """Push owned keys to the successor list (replica maintenance)."""
        items = tuple(
            (key, s.value, s.stamp, s.version) for key, s in self.store.items() if self.owns(key)
        )
        if items:
            for succ in self.successors[: self.config.replication - 1]:
                if succ != self.node_id:
                    self.send(succ, ReplicaPush(items=items))
        if self.config.hardened:
            self._last_replicas = tuple(
                s for s in self.successors[: self.config.replication - 1] if s != self.node_id
            )
        self._arm("repair", self.config.repair_interval, self._repair_tick)

    def _maybe_rereplicate(self) -> None:
        """Leslie-style owner-driven repair: when the successor list
        changes, push owned keys to the *new* replica-set members right
        away instead of leaving the replication factor degraded until
        the next periodic repair tick."""
        current = tuple(
            s for s in self.successors[: self.config.replication - 1] if s != self.node_id
        )
        if current == self._last_replicas:
            return
        previous = self._last_replicas or ()
        self._last_replicas = current
        fresh = [s for s in current if s not in previous]
        if not fresh:
            return
        items = tuple(
            (key, s.value, s.stamp, s.version) for key, s in self.store.items() if self.owns(key)
        )
        if items:
            for succ in fresh:
                self.send(succ, ReplicaPush(items=items))

    # ------------------------------------------------------------------
    # Lookup and storage
    # ------------------------------------------------------------------
    def _on_closest(self, src: str, msg: ClosestReq) -> ClosestResp:
        succ = self.successor
        if in_interval(msg.key, self.ring_id, self.rid(succ), inclusive_hi=True):
            return ClosestResp(done=True, node=succ, successors=tuple(self.successors))
        hop = self.closest_preceding(msg.key)
        if hop == self.node_id:
            return ClosestResp(done=True, node=self.node_id)
        return ClosestResp(done=False, node=hop)

    def _on_put(self, src: str, msg: PutReq) -> OpResp:
        stored = self.store.get(msg.key)
        version = (stored.version if stored else 0) + 1
        self.store[msg.key] = _Stored(value=msg.value, stamp=msg.stamp, version=version)
        # Asynchronous best-effort replication: ack before replicas land.
        items = ((msg.key, msg.value, msg.stamp, version),)
        for succ in self.successors[: self.config.replication - 1]:
            if succ != self.node_id:
                self.send(succ, ReplicaPush(items=items))
        return OpResp(ok=True, version=version)

    def _on_get(self, src: str, msg: GetReq) -> OpResp:
        stored = self.store.get(msg.key)
        if stored is None:
            return OpResp(ok=False, error="not_found")
        return OpResp(ok=True, value=stored.value, version=stored.version)

    def _on_replica_push(self, src: str, msg: ReplicaPush) -> None:
        for key, value, stamp, version in msg.items:
            mine = self.store.get(key)
            if mine is None or (stamp, version) > (mine.stamp, mine.version):
                self.store[key] = _Stored(value=value, stamp=stamp, version=version)

    _HANDLERS = {
        ClosestReq: _on_closest,
        StabilizeReq: _on_stabilize,
        NotifyMsg: _on_notify,
        PutReq: _on_put,
        GetReq: _on_get,
        ReplicaPush: _on_replica_push,
    }


class _LookupFailed(Exception):
    pass


def _lookup(node: Node, start: str, key: int, max_hops: int = 32, hop_counter: list | None = None):
    """Iterative Chord lookup driven from ``node``; returns the owner name.

    ``hop_counter`` (a single-element list) accumulates the number of
    routing RPCs issued, for hop-count measurements.
    """
    target = start
    rpc_timeout = getattr(node, "config").rpc_timeout if hasattr(node, "config") else 0.5
    for _hop in range(max_hops):
        if hop_counter is not None:
            hop_counter[0] += 1
        try:
            resp = yield node.request(target, ClosestReq(key=key), timeout=rpc_timeout)
        except (RpcTimeout, RpcError) as exc:
            raise _LookupFailed(str(exc)) from exc
        if resp.done:
            return resp.node
        if resp.node == target:
            raise _LookupFailed("lookup made no progress")
        target = resp.node
    raise _LookupFailed("hop limit exceeded")


# ---------------------------------------------------------------------------
# Client and system
# ---------------------------------------------------------------------------
@dataclass
class ChordClientConfig:
    rpc_timeout: float = 0.5
    op_timeout: float = 8.0
    lookup_retries: int = 4


class ChordClient(Node):
    """Client mirroring :class:`ScatterClient`'s API over the Chord ring."""

    def __init__(
        self,
        client_id: str,
        sim: Simulator,
        net: SimNetwork,
        seed_provider: Callable[[], list[str]],
        config: ChordClientConfig | None = None,
    ) -> None:
        super().__init__(client_id, sim, net)
        self.seed_provider = seed_provider
        self.config = config or ChordClientConfig()
        self.records = []
        self._rng = sim.rng(f"chordclient:{client_id}")

    def get(self, key: str | int) -> Future:
        return self._run("get", self._key(key), None)

    def put(self, key: str | int, value: object) -> Future:
        return self._run("put", self._key(key), value)

    @staticmethod
    def _key(key: str | int) -> int:
        return hash_key(key) if isinstance(key, str) else key

    def _run(self, op: str, key: int, value: object) -> Future:
        from repro.dht.client import OpRecord  # shared record type

        record = OpRecord(op=op, key=key, value=value, invoke_time=self.sim.now)
        self.records.append(record)
        return spawn(self.sim, self._op_proc(op, key, value, record))

    def _op_proc(self, op: str, key: int, value: object, record):
        deadline = self.sim.now + self.config.op_timeout
        while self.sim.now < deadline:
            seeds = self.seed_provider()
            if not seeds:
                break
            seed = self._rng.choice(seeds)
            record.attempts += 1
            hop_counter = [0]
            try:
                owner = yield from _lookup(self, seed, key, hop_counter=hop_counter)
            except _LookupFailed:
                record.hops += hop_counter[0]
                yield _sleep(self.sim, 0.2)
                continue
            record.hops += hop_counter[0]
            msg = PutReq(key, value, stamp=self.sim.now) if op == "put" else GetReq(key)
            try:
                resp = yield self.request(owner, msg, timeout=self.config.rpc_timeout)
            except (RpcTimeout, RpcError):
                yield _sleep(self.sim, 0.2)
                continue
            result = KvResult(ok=resp.ok, value=resp.value, version=resp.version, error=resp.error)
            record.response_time = self.sim.now
            record.result = result
            return result
        result = KvResult(ok=False, error="timeout")
        record.response_time = self.sim.now
        record.result = result
        return result


class ChordSystem:
    """Builder mirroring :class:`ScatterSystem` for the baseline."""

    def __init__(self, sim: Simulator, net: SimNetwork, config: ChordConfig | None = None) -> None:
        self.sim = sim
        self.net = net
        self.config = config or ChordConfig()
        self.nodes: dict[str, ChordNode] = {}
        self._counter = 0

    @staticmethod
    def build(
        sim: Simulator, net: SimNetwork, n_nodes: int, config: ChordConfig | None = None
    ) -> "ChordSystem":
        system = ChordSystem(sim, net, config)
        names = [system._new_name() for _ in range(n_nodes)]
        for name in names:
            system.nodes[name] = ChordNode(name, sim, net, config=system.config)
        # Pre-build a correct ring (the steady state), like ScatterSystem.
        ordered = sorted(names, key=hash_key)
        n = len(ordered)
        for i, name in enumerate(ordered):
            node = system.nodes[name]
            node.successors = [ordered[(i + j + 1) % n] for j in range(system.config.successor_list_len)]
            node.predecessor = ordered[(i - 1) % n]
        for node in system.nodes.values():
            node.start()
        return system

    def _new_name(self) -> str:
        name = f"c{self._counter}"
        self._counter += 1
        return name

    def add_node(self, seed: str | None = None) -> ChordNode:
        name = self._new_name()
        node = ChordNode(name, self.sim, self.net, config=self.config)
        self.nodes[name] = node
        node.start()
        if seed is None:
            alive = [n for n in self.alive_node_ids() if n != name]
            seed = self.sim.rng("seeds").choice(alive) if alive else None
        if seed is not None:
            node.join(seed, seed_provider=self.alive_node_ids)
        return node

    def kill_node(self, node_id: str) -> None:
        node = self.nodes.get(node_id)
        if node is not None:
            node.shutdown()

    def alive_node_ids(self) -> list[str]:
        return sorted(name for name, node in self.nodes.items() if node.alive)


def _sleep(sim: Simulator, delay: float) -> Future:
    future = Future()
    sim.schedule(delay, future.set_result, None)
    return future
