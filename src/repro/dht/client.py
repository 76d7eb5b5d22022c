"""Client-side routing for Scatter: iterative lookup with retries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dht.messages import ClientOpReq
from repro.dht.ring import hash_key
from repro.dht.route import RingTable, scan
from repro.group.info import GroupInfo
from repro.net.futures import Future, RpcError, RpcTimeout, spawn
from repro.net.node import Node
from repro.net.retry import RetryPolicy, RetryState
from repro.obs.spans import CLIENT_OP
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.store.kvstore import KvOp, KvResult, OP_CAS, OP_DELETE, OP_GET, OP_PUT


# Pause before retrying a ``busy`` group or a livelocked route.
BUSY_BACKOFF = 0.25
# Backoff after a failed RPC (timeout / remote error): exponential with
# decorrelated jitter from RETRY_BASE toward RETRY_CAP, reset on any
# successful hop.  The busy/livelock pauses share the cap but start
# from BUSY_BACKOFF.
RETRY_BASE = 0.04
RETRY_CAP = 1.5
# Replies an op may follow before it gives up.
MAX_HOPS = 32


@dataclass
class ClientConfig:
    rpc_timeout: float = 0.5
    op_timeout: float = 8.0
    cache_size: int = 128
    # Replica-aware read routing (the scale-out read path; pair with
    # PaxosConfig.follower_reads).  "leader" sends Gets to the leader
    # hint as always; "round_robin" rotates them across the cached
    # group members, passing over the leader once for every op it
    # already took outside the rotation (writes, bounced Gets), so
    # its total load tracks each follower's; "nearest" picks the
    # member with the lowest expected link latency.  A follower that
    # cannot serve bounces ``not_leader`` and the client falls back to
    # the leader, so any mode is safe with follower reads off — just
    # one hop slower.
    read_routing: str = "leader"

    def __post_init__(self) -> None:
        if self.read_routing not in ("leader", "round_robin", "nearest"):
            raise ValueError(f"bad read_routing mode {self.read_routing}")


@dataclass(slots=True)
class OpRecord:
    """One completed (or failed) client operation, for analysis."""

    op: str
    key: int
    value: object
    invoke_time: float
    response_time: float = -1.0
    result: KvResult | None = None
    hops: int = 0
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.result is not None and self.result.ok

    @property
    def completed(self) -> bool:
        return self.response_time >= 0 and self.result is not None and self.result.error != "timeout"

    @property
    def latency(self) -> float:
        return self.response_time - self.invoke_time


class ScatterClient(Node):
    """Issues linearizable get/put/delete/cas against the overlay.

    Routing is iterative: the client asks the best node it knows of,
    follows ``not_leader`` and ``redirect`` replies, backs off on
    ``busy`` and re-seeds on ``lost``.  Only ``ok`` ends an op before
    its deadline, with a value, a miss, an ack or a CAS conflict (see
    :class:`~repro.dht.messages.ClientOpResp`); past the deadline the
    op ends in the client's own ``timeout``.  Every op carries a
    (client, seq, low) dedup token so retries are exactly-once; ``low``
    is the client's acknowledgement watermark, the lowest seq it has
    not yet had answered, below which a store keeps no answers.
    ``seed_provider`` stands in for the out-of-band bootstrap every DHT
    assumes (a well-known node list).
    """

    def __init__(
        self,
        client_id: str,
        sim: Simulator,
        net: SimNetwork,
        seed_provider: Callable[[], list[str]],
        config: ClientConfig | None = None,
    ) -> None:
        super().__init__(client_id, sim, net)
        self.seed_provider = seed_provider
        self.config = config or ClientConfig()
        self.cache: dict[str, GroupInfo] = {}
        # Lazily rebuilt RingTable over the cache; None doubles as the
        # dirty flag, cleared by _learn.
        self._table: RingTable | None = None
        self.records: list[OpRecord] = []
        self._seq = 0
        # Sequence numbers not yet answered, in issue order: seqs only
        # grow, so the first key is the watermark.  An op closes its seq
        # however it ends; one left open would pin the watermark.
        self._open: dict[int, None] = {}
        self._rng = sim.rng(f"client:{client_id}")
        # round_robin read routing, per cached gid (deterministic, no
        # RNG): the rotation cursor, and the ops sent to the group's
        # leader outside the rotation that it has not yet been passed
        # over for.
        self._rr_next: dict[str, int] = {}
        self._leader_owed: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def get(self, key: str | int) -> Future:
        return self._run(KvOp(OP_GET, self._key(key)))

    def put(self, key: str | int, value: object) -> Future:
        return self._run(KvOp(OP_PUT, self._key(key), value))

    def delete(self, key: str | int) -> Future:
        return self._run(KvOp(OP_DELETE, self._key(key)))

    def cas(self, key: str | int, value: object, expected_version: int) -> Future:
        return self._run(KvOp(OP_CAS, self._key(key), value, expected_version))

    @staticmethod
    def _key(key: str | int) -> int:
        return hash_key(key) if isinstance(key, str) else key

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _run(self, op: KvOp) -> Future:
        self._seq += 1
        seq = self._seq
        self._open[seq] = None
        dedup = (self.node_id, seq, next(iter(self._open)))
        record = OpRecord(op=op.op, key=op.key, value=op.value, invoke_time=self.sim.now)
        self.records.append(record)
        future = spawn(self.sim, self._op_proc(op, dedup, record))
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.begin(CLIENT_OP, op=op.op, key=op.key, client=self.node_id)

            def _finish(f: Future) -> None:
                m = tracer.metrics
                m.inc("client.ops")
                m.observe("client.hops", record.hops)
                m.observe("client.attempts", record.attempts)
                # Attempts that got no reply were RPC timeouts/errors.
                m.inc("client.rpc_failures", record.attempts - record.hops)
                error = None if f.exception is not None else getattr(f.result(), "error", None)
                tracer.finish(
                    span,
                    ok=f.exception is None and record.ok,
                    hops=record.hops,
                    attempts=record.attempts,
                    error=str(f.exception) if f.exception is not None else error,
                )

            future.add_callback(_finish)
        return future

    def _op_proc(self, op: KvOp, dedup, record: OpRecord):
        try:
            deadline = self.sim.now + self.config.op_timeout
            # Backoff cursors, built on the op's first failure: most ops
            # never pause, and a cursor draws from the RNG only in next().
            net_retry: RetryState | None = None
            busy_retry: RetryState | None = None
            info = self._best_info(op.key)
            target = info.leader_hint if info is not None else self._seed()
            backups: list[str] = list(info.members) if info is not None else []
            rotating = info is not None and self.config.read_routing == "round_robin"
            if op.op == OP_GET and info is not None:
                target = self._read_target(info) or target
            elif rotating:
                self._owe_leader(info)
            visits: dict[str, int] = {}
            while self.sim.now < deadline and record.hops < MAX_HOPS:
                if target is None:
                    target = self._seed()
                    if target is None:
                        break
                if visits.get(target, 0) >= 3:
                    # Two nodes pointing at each other with stale views can
                    # livelock an op; cap per-node visits and fall back to
                    # untried members / fresh seeds.
                    target = self._next_target(backups, exclude=target)
                    if target is None or visits.get(target, 0) >= 3:
                        target = self._seed()
                        busy_retry = busy_retry or self._backoff(BUSY_BACKOFF)
                        yield _sleep(self.sim, busy_retry.next(), deadline)
                    continue
                visits[target] = visits.get(target, 0) + 1
                record.attempts += 1
                try:
                    resp = yield self.request(
                        target, ClientOpReq(op=op, dedup=dedup), timeout=self.config.rpc_timeout
                    )
                except (RpcTimeout, RpcError):
                    # Decorrelated-jitter pause before the fallback target so
                    # clients stalled on the same dead node spread out instead
                    # of stampeding the next member in lockstep.
                    target = self._next_target(backups, exclude=target)
                    net_retry = net_retry or self._backoff(RETRY_BASE)
                    yield _sleep(self.sim, net_retry.next(), deadline)
                    continue
                record.hops += 1
                if net_retry is not None:
                    net_retry.reset()
                for group in resp.groups:
                    self._learn(group)
                if resp.status == "ok":
                    record.response_time = self.sim.now
                    record.result = resp.result
                    return resp.result
                if resp.status == "not_leader":
                    if rotating and op.op == OP_GET:
                        self._owe_leader(info)
                    target = resp.leader_hint or self._next_target(backups, exclude=target)
                    continue
                if resp.status == "redirect":
                    nxt = scan(resp.groups, op.key) or self._best_info(op.key)
                    if nxt is not None:
                        asked = target
                        target, backups = nxt.leader_hint, list(nxt.members)
                        if target == asked:
                            # The responder redirected us back to itself:
                            # stale knowledge somewhere.  Try another member,
                            # and pause so fresher state can propagate.
                            target = self._next_target(backups, exclude=asked)
                            busy_retry = busy_retry or self._backoff(BUSY_BACKOFF)
                            yield _sleep(self.sim, busy_retry.next(), deadline)
                    else:
                        target = self._seed()
                    continue
                if resp.status == "busy":
                    busy_retry = busy_retry or self._backoff(BUSY_BACKOFF)
                    yield _sleep(self.sim, busy_retry.next(), deadline)
                    refreshed = self._best_info(op.key)
                    if refreshed is not None:
                        target, backups = refreshed.leader_hint, list(refreshed.members)
                    continue
                # "lost": this node knows nothing useful; re-seed.
                target = self._seed()
            record.response_time = self.sim.now
            record.result = KvResult(ok=False, error="timeout")
            return record.result
        finally:
            del self._open[dedup[1]]

    def _backoff(self, base: float) -> RetryState:
        return RetryState(RetryPolicy(base=base, cap=RETRY_CAP), self._rng)

    def _read_target(self, info: GroupInfo) -> str | None:
        """Replica-aware read routing: which member to ask a Get first.

        ``leader`` (default) returns ``None`` — the caller uses the
        leader hint, byte-identical to the historical path.
        ``round_robin`` rotates Gets across the cached members and is
        work-conserving: when the rotation lands on the leader hint
        while the leader is owed for an op it took outside the
        rotation (:meth:`_owe_leader`), it pays one off and moves on,
        so the leader's reads + writes + bounces track each follower's
        reads.  ``nearest`` picks the member with the lowest expected
        link latency (ties broken by id for determinism).  A member
        that cannot serve locally answers ``not_leader`` and the
        routing loop falls back to its leader hint.
        """
        mode = self.config.read_routing
        members = info.members
        if mode == "leader" or not members:
            return None
        if mode == "round_robin":
            gid, n = info.gid, len(members)
            cursor = self._rr_next.get(gid, 0) + 1
            owed = self._leader_owed.get(gid, 0)
            if owed and n > 1 and members[cursor % n] == info.leader_hint:
                self._leader_owed[gid] = owed - 1
                cursor += 1
            self._rr_next[gid] = cursor
            return members[cursor % n]
        latency = self.net.latency
        return min(members, key=lambda m: (latency.expected(self.node_id, m), m))

    def _owe_leader(self, info: GroupInfo) -> None:
        """Record one op sent to ``info``'s leader outside the read rotation.

        Every non-Get and every Get that bounced ``not_leader`` lands
        on the leader whatever the rotation says.  The count is capped
        at one per member: older history says nothing about the
        leader's load now, and an uncapped count would keep the leader
        out of the rotation long after a write burst, or an election
        during which every Get bounced, had ended.
        """
        owed = self._leader_owed.get(info.gid, 0)
        if owed < len(info.members):
            self._leader_owed[info.gid] = owed + 1

    def _next_target(self, backups: list[str], exclude: str | None) -> str | None:
        while backups:
            candidate = backups.pop(0)
            if candidate != exclude:
                return candidate
        return self._seed()

    def _seed(self) -> str | None:
        seeds = self.seed_provider()
        if not seeds:
            return None
        return self._rng.choice(seeds)

    def _learn(self, info: GroupInfo) -> None:
        cached = self.cache.get(info.gid)
        if cached is not None and cached.epoch > info.epoch:
            return  # keep the fresher view
        if cached is None and len(self.cache) >= self.config.cache_size:
            evicted = next(iter(self.cache))
            del self.cache[evicted]
            self._rr_next.pop(evicted, None)
            self._leader_owed.pop(evicted, None)
        self.cache[info.gid] = info
        # Re-learning an identical view is the steady-state common case
        # (every reply carries groups); only an actual change dirties
        # the routing table, so large-ring runs rebuild it rarely.
        if cached != info:
            self._table = None

    def _best_info(self, key: int) -> GroupInfo | None:
        table = self._table
        if table is None:
            table = self._table = RingTable(self.cache.values())
        return table.lookup(key)


def _sleep(sim: Simulator, delay: float, deadline: float) -> Future:
    """A backoff pause that never outlasts the op's deadline, so an op
    resolves within ``op_timeout`` plus one RPC timeout.  The RPC itself
    is not cut short: an attempt sent just before the deadline may still
    succeed."""
    future = Future()
    sim.schedule(max(0.0, min(delay, deadline - sim.now)), future.set_result, None)
    return future
