"""Microbenchmarks for the simulation core's wall-clock throughput.

Each benchmark runs a fixed, seeded simulated workload and reports how
fast the host chewed through it.  The simulated work is bit-identical
between runs and between machines; only the wall-clock differs.  Every
metric is "bigger is better" (events, messages, or operations per
wall-clock second).

The suite is the source of ``BENCH_SIM.json``, committed at the repo
root so the perf trajectory is reviewable across PRs and regressions
are a one-command check (``scripts/check_perf.sh``).
"""

from __future__ import annotations

import gc
import json
import platform
import time
import tracemalloc
from typing import Any, Callable

from repro.sim.latency import ConstantLatency, LogNormalLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork

BENCH_FILENAME = "BENCH_SIM.json"

# Regressions smaller than this ratio are treated as wall-clock noise by
# compare_benchmarks callers (shared CI boxes jitter easily by 20-30%).
DEFAULT_TOLERANCE = 0.6


# ---------------------------------------------------------------------------
# Individual benchmarks.  Each returns work-units completed; the runner
# divides by wall time.
# ---------------------------------------------------------------------------
def _bench_event_throughput(n: int) -> Callable[[], int]:
    """Raw event loop: one self-rescheduling tick, fire-and-forget path."""

    def run() -> int:
        sim = Simulator(seed=1)
        count = [0]
        fire = sim.schedule_fire
        def tick() -> None:
            count[0] += 1
            if count[0] < n:
                fire(0.001, tick)
        fire(0.0, tick)
        sim.run()
        return count[0]

    return run


def _bench_event_throughput_handles(n: int) -> Callable[[], int]:
    """Handle-based scheduling with a cancellation on every other event —
    exercises EventHandle allocation plus lazy deletion."""

    def run() -> int:
        sim = Simulator(seed=1)
        count = [0]
        def tick() -> None:
            count[0] += 1
            if count[0] < n:
                sim.schedule(0.001, tick)
                sim.schedule(0.002, tick).cancel()
        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    return run


def _bench_net_send_deliver(n: int) -> Callable[[], int]:
    """Two endpoints ping-pong over a fault-free network (fast path)."""

    def run() -> int:
        sim = Simulator(seed=1)
        net = SimNetwork(sim, latency=ConstantLatency(0.001))
        got = [0]
        def pong(src: str, msg: Any) -> None:
            got[0] += 1
            if got[0] < n:
                net.send("b", "a", msg)
        def ping(src: str, msg: Any) -> None:
            got[0] += 1
            if got[0] < n:
                net.send("a", "b", msg)
        net.register("a", ping)
        net.register("b", pong)
        net.send("a", "b", "ping")
        sim.run()
        return got[0]

    return run


def _bench_net_send_deliver_faulty(n: int) -> Callable[[], int]:
    """Same ping-pong with drop/dup/slowdown active (slow path)."""

    def run() -> int:
        sim = Simulator(seed=1)
        net = SimNetwork(sim, latency=ConstantLatency(0.001), drop_prob=0.01, dup_prob=0.01)
        net.set_link_slowdown("c", "d", 4.0)  # unrelated link; keeps slow path on
        got = [0]
        def pong(src: str, msg: Any) -> None:
            got[0] += 1
            if got[0] < n:
                net.send("b", "a", msg)
        def ping(src: str, msg: Any) -> None:
            got[0] += 1
            if got[0] < n:
                net.send("a", "b", msg)
        net.register("a", ping)
        net.register("b", pong)
        def kick() -> None:
            # Drops kill the ping-pong chain; restart it until done.
            if got[0] < n:
                net.send("a", "b", "ping")
                sim.schedule_fire(0.5, kick)
        kick()
        sim.run()
        return got[0]

    return run


def _bench_e2e_ops(duration: float) -> Callable[[], int]:
    """End-to-end: a small Scatter deployment under closed-loop load.

    Returns simulator events processed (the unit the optimizations
    target); the ops count is reported via the ``extra`` hook.
    """

    def run() -> int:
        # Imported lazily: the harness pulls in the whole stack and the
        # event/net benches should not pay for that.
        from repro.harness.builders import DeploymentParams, build_scatter_deployment
        from repro.workloads import UniformKeys
        from repro.workloads.driver import ClosedLoopWorkload

        params = DeploymentParams(
            n_nodes=12, n_groups=4, n_clients=2, seed=1,
            latency=LogNormalLatency(0.004, 0.4),
        )
        deployment = build_scatter_deployment(params)
        workload = ClosedLoopWorkload(
            deployment.sim, deployment.clients, UniformKeys(64), read_fraction=0.5
        )
        workload.start()
        deployment.sim.run_for(duration)
        workload.stop()
        run.ops = len(workload.all_records())  # type: ignore[attr-defined]
        return deployment.sim.events_processed

    return run


def cyclic_garbage(duration: float) -> tuple[int, int]:
    """Unreachable objects a window of client ops leaves, and the op count.

    Thirty nodes in ten groups under eight closed-loop clients (the
    ledger's ``kv_mixed`` shape) run ``duration`` simulated seconds with
    the collector off, then one full collection counts what reference
    counting alone did not free.  A count, not a timing: the same on
    every host and every run.
    """
    from repro.harness.builders import DeploymentParams, build_scatter_deployment
    from repro.workloads import UniformKeys
    from repro.workloads.driver import ClosedLoopWorkload

    deployment = build_scatter_deployment(DeploymentParams(n_clients=8))
    workload = ClosedLoopWorkload(
        deployment.sim, deployment.clients, UniformKeys(400), read_fraction=0.5
    )
    workload.start()
    deployment.sim.run_for(2.0)  # elections and cold caches are not steady state
    before = len(workload.all_records())
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        deployment.sim.run_for(duration)
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    return unreachable, len(workload.all_records()) - before


def _bench_cyclic_garbage_per_op(duration: float) -> Callable[[], int]:
    """Work left for the cyclic collector per client op, as a count.

    ``scripts/check_perf.sh`` holds ``cyclic_garbage_per_op`` at exactly
    0: a finished op is freed by reference count (``spawn``'s process
    object), so the collector has nothing to find in the steady state.
    The value is ops per host second over the same window.
    """

    def run() -> int:
        t0 = time.perf_counter()
        unreachable, ops = cyclic_garbage(duration)
        run.self_timed = (ops, time.perf_counter() - t0)  # type: ignore[attr-defined]
        run.extra = {  # type: ignore[attr-defined]
            "cyclic_garbage_per_op": round(unreachable / max(1, ops), 3),
            "unreachable_objects": unreachable,
        }
        return ops

    return run


# Ceiling on node_footprint's tracked_objects_per_node, held by
# scripts/check_perf.sh and tests/test_gc_pacing.py: 46.0 measured on
# CPython 3.11, plus 10%.
NODE_FOOTPRINT_CEILING = 50.6


def node_footprint(n_nodes: int = 300, duration: float = 3.0) -> tuple[Any, dict]:
    """An idle ring after warm-up, and what each of its nodes holds.

    ``n_nodes`` nodes in ``n_nodes // 3`` groups, no client, run for
    ``duration`` simulated seconds (the builder's warm-up: elections,
    read barriers, heartbeats, gossip and maintenance).  Counted after
    a full collection, per node: the collector-tracked objects and the
    bytes tracemalloc traces that the deployment added.  A throwaway
    build first pulls in every lazy import and cache, so the object
    count is the deployment's alone, the same on every run; the byte
    count moves by a fraction of a percent with what the process ran
    before.  Returns the deployment (still alive, for a caller to
    inspect) and the counts.
    """
    from repro.harness.builders import DeploymentParams, build_scatter_deployment

    def build(nodes: int, warmup: float) -> Any:
        return build_scatter_deployment(
            DeploymentParams(n_nodes=nodes, n_groups=nodes // 3, n_clients=0, warmup=warmup)
        )

    build(3, 0.5)
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        deployment = build(n_nodes, duration)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tracked = len(gc.get_objects()) - tracked
    return deployment, {
        "tracked_objects_per_node": round(tracked / n_nodes, 1),
        "traced_bytes_per_node": round(traced / n_nodes),
    }


def _bench_node_footprint() -> Callable[[], int]:
    """What an idle node holds, as counts (see :func:`node_footprint`).

    ``scripts/check_perf.sh`` holds ``tracked_objects_per_node`` at or
    under ``NODE_FOOTPRINT_CEILING``, as ``tests/test_gc_pacing.py``
    does.  The value is nodes built per host second, tracemalloc on.
    """

    def run() -> int:
        t0 = time.perf_counter()
        deployment, counts = node_footprint()
        n_nodes = len(deployment.system.nodes)
        run.self_timed = (n_nodes, time.perf_counter() - t0)  # type: ignore[attr-defined]
        run.extra = counts  # type: ignore[attr-defined]
        return n_nodes

    return run


def _bench_ring_lookup(n_lookups: int, n_groups: int) -> Callable[[], int]:
    """Routing-table lookups on a large ring: RingTable bisect vs the
    historical linear containment scan over the same infos.

    A ``n_groups``-arc tiled ring stands in for a ~10k-node deployment
    (3 members per group).  The reported value is the table path; the
    linear baseline (scaled down — it is hundreds of times slower) and
    the speedup land in the report via the ``extra`` hook.  The two
    paths are cross-checked for identical picks on a key sample, the
    equivalence E21 relies on.
    """

    def run() -> int:
        import random as _random

        from repro.dht.ring import KEY_SPACE, KeyRange, ring_distance
        from repro.dht.route import RingTable
        from repro.group.info import GroupInfo

        bounds = [(i * KEY_SPACE) // n_groups for i in range(n_groups)]
        infos = [
            GroupInfo(
                gid=f"g{i:05d}",
                range=KeyRange(bounds[i], bounds[(i + 1) % n_groups]),
                members=(f"n{3 * i}", f"n{3 * i + 1}", f"n{3 * i + 2}"),
                leader_hint=f"n{3 * i}",
            )
            for i in range(n_groups)
        ]
        rng = _random.Random(1)
        keys = [rng.randrange(KEY_SPACE) for _ in range(n_lookups)]

        def linear_best(key: int) -> GroupInfo:
            # The historical ScatterClient._best_info scan.
            containing = [g for g in infos if g.range.contains(key)]
            if containing:
                return containing[0]
            return min(infos, key=lambda g: ring_distance(g.range.lo, key))

        table = RingTable(infos)
        for key in keys[:200]:
            assert table.lookup(key) is linear_best(key)

        t0 = time.perf_counter()
        lookup = table.lookup
        for key in keys:
            lookup(key)
        table_wall = time.perf_counter() - t0

        n_linear = max(200, n_lookups // 200)
        t0 = time.perf_counter()
        for key in keys[:n_linear]:
            linear_best(key)
        linear_wall = time.perf_counter() - t0

        table_rate = n_lookups / table_wall if table_wall > 0 else 0.0
        linear_rate = n_linear / linear_wall if linear_wall > 0 else 0.0
        run.self_timed = (n_lookups, table_wall)  # type: ignore[attr-defined]
        run.extra = {  # type: ignore[attr-defined]
            "groups": n_groups,
            "linear_lookups_per_s": round(linear_rate, 1),
            "speedup_vs_linear": round(table_rate / linear_rate, 2) if linear_rate else None,
        }
        return n_lookups

    return run


def _bench_pooled_send_deliver(n: int) -> Callable[[], int]:
    """The fault-free send->deliver path against the checked one, in one
    process: the same ping-pong as ``net_send_deliver`` run with direct
    dispatch and with every message forced through ``_deliver`` by a
    one-way block between two addresses that never exchange traffic
    (every check runs and passes).  The reported value is the direct
    rate; the in-process A/B ratio lands in ``extra``.
    """

    def one(checked: bool) -> float:
        sim = Simulator(seed=1)
        net = SimNetwork(sim, latency=ConstantLatency(0.001))
        if checked:
            net.block_one_way("__nobody__", "__never__")
        got = [0]

        def pong(src: str, msg: Any) -> None:
            got[0] += 1
            if got[0] < n:
                net.send("b", "a", msg)

        def ping(src: str, msg: Any) -> None:
            got[0] += 1
            if got[0] < n:
                net.send("a", "b", msg)

        net.register("a", ping)
        net.register("b", pong)
        net.send("a", "b", "ping")
        t0 = time.perf_counter()
        sim.run()
        return time.perf_counter() - t0

    def run() -> int:
        # Best of three with the sides alternated, so one collector
        # pause or a host phase cannot swing the ratio.
        trials = [(one(False), one(True)) for _ in range(3)]
        direct_wall = min(direct for direct, _ in trials)
        checked_wall = min(checked for _, checked in trials)
        run.self_timed = (n, direct_wall)  # type: ignore[attr-defined]
        run.extra = {  # type: ignore[attr-defined]
            "checked_msgs_per_s": round(n / checked_wall, 1),
            "speedup_vs_checked": round(checked_wall / direct_wall, 2),
        }
        return n

    return run


def _bench_write_path(n: int) -> Callable[[], int]:
    """Write-path saturation: a 3-replica Paxos group on storage with
    the full throughput stack on (slot batching on the default
    8-deep pipeline) chewing through ``n`` closed-pipe proposals at
    concurrency 64.  Guards the hot path the write-path optimizations
    touch; returns simulator events processed.
    """

    def run() -> int:
        from repro.consensus.commands import Command
        from repro.consensus.harness import build_cluster
        from repro.consensus.replica import PaxosConfig
        from repro.storage.disk import StorageConfig

        sim = Simulator(seed=1)
        net = SimNetwork(sim, latency=ConstantLatency(0.001))
        config = PaxosConfig(
            heartbeat_interval=0.1,
            election_timeout=0.5,
            lease_duration=0.35,
            retry_interval=0.3,
            batch=True,
            batch_window=0.002,
            batch_max=16,
        )
        hosts = build_cluster(sim, net, n=3, config=config, storage=StorageConfig())
        sim.run_for(0.5)  # let the initial leader settle
        leader = hosts[0]
        issued = [0]
        done = [0]

        def pump(_future: Any = None) -> None:
            done[0] += _future is not None
            if issued[0] < n:
                issued[0] += 1
                leader.propose(Command.app(issued[0])).add_callback(pump)

        for _ in range(64):
            pump()
        sim.run_for(120.0)
        run.ops = done[0]  # type: ignore[attr-defined]
        return sim.events_processed

    return run


def _bench_accept_msgs_per_slot(n: int) -> Callable[[], int]:
    """Network cost of phase 2 as a count: ``n`` proposals, one at a
    time, through a 3-replica and a 5-replica group, counting every
    Accept-family message sent.  The per-slot counts land in ``extra``,
    where ``scripts/check_perf.sh`` holds them at exactly 2·(n−1) — the
    leader votes locally; the value is those messages per host second.
    """

    def one(members: int) -> tuple[int, int]:
        from repro.consensus.commands import Command
        from repro.consensus.harness import build_cluster, record_sends

        sim = Simulator(seed=1)
        net = SimNetwork(sim, latency=ConstantLatency(0.001))
        hosts = build_cluster(sim, net, n=members)
        sim.run_for(1.5)  # election and read barrier
        sent = record_sends(hosts)
        chosen = 0
        for i in range(n):
            future = hosts[0].propose(Command.app(i))
            sim.run_for(0.01)
            chosen += future.done and future.exception is None
        family = ("Accept", "Accepted")
        return sum(kind in family for _src, _dst, kind in sent), chosen

    def run() -> int:
        t0 = time.perf_counter()
        (sent3, chosen3), (sent5, chosen5) = one(3), one(5)
        run.self_timed = (sent3 + sent5, time.perf_counter() - t0)  # type: ignore[attr-defined]
        run.extra = {  # type: ignore[attr-defined]
            "msgs_per_slot_n3": round(sent3 / max(1, chosen3), 3),
            "msgs_per_slot_n5": round(sent5 / max(1, chosen5), 3),
        }
        return sent3 + sent5

    return run


def _bench_wal_fsync_per_ack(n: int) -> Callable[[], int]:
    """Per-ack WAL cost against log length: ``n`` append + fsync pairs
    on a region already retaining 100 synced records and on one
    retaining 10,000, in one process.  An acceptor acks once per
    Accept, so the pair must cost the same on both; the reported value
    is the long-log rate and the cost ratio lands in ``extra``, where
    ``scripts/check_perf.sh`` holds it under 2 whatever the host's speed.
    """

    def one(retained: int) -> float:
        from repro.storage.disk import NodeDisk

        region = NodeDisk("bench").storage_for("g")
        ballot = (1, "bench")
        for slot in range(retained):
            region.append_accept(slot, ballot, None)
        region.mark_synced(region.current_seq())
        t0 = time.perf_counter()
        for slot in range(retained, retained + n):
            region.append_accept(slot, ballot, None)
            region.mark_synced(region.current_seq())
        return time.perf_counter() - t0

    def run() -> int:
        # Each side is a few milliseconds, so one collector pause would
        # swing the ratio: best of three, sides alternated.
        trials = [(one(100), one(10_000)) for _ in range(3)]
        short_wall = min(short for short, _ in trials)
        long_wall = min(long for _, long in trials)
        run.self_timed = (n, long_wall)  # type: ignore[attr-defined]
        run.extra = {  # type: ignore[attr-defined]
            "us_per_pair_retaining_100": round(short_wall / n * 1e6, 3),
            "us_per_pair_retaining_10k": round(long_wall / n * 1e6, 3),
            "cost_ratio_10k_vs_100": round(long_wall / short_wall, 2) if short_wall else None,
        }
        return n

    return run


def _bench_follower_read_window(n: int) -> Callable[[], int]:
    """Follower-read conflict check against log length: ``n`` checks of
    the same two-entry window (one accepted and one caught-up write,
    neither on the key read) on a follower whose log retains 10 applied
    entries and on one retaining 400, in one process.  The window is
    slots ``(applied_index, top]``, so the check must cost the same on
    both; the reported value is the long-log rate and the cost ratio
    lands in ``extra``, where ``scripts/check_perf.sh`` holds it under 2.
    """

    def one(retained: int) -> float:
        from repro.consensus.commands import Command
        from repro.consensus.harness import build_cluster
        from repro.consensus.replica import PaxosConfig

        sim = Simulator(seed=1)
        net = SimNetwork(sim, latency=ConstantLatency(0.001))
        config = PaxosConfig(follower_reads=True, compact_threshold=10_000)
        hosts = build_cluster(sim, net, n=3, config=config)
        sim.run_for(1.5)  # election, read barrier and first grants
        for i in range(retained):
            hosts[0].propose(Command.app(i))
            sim.run_for(0.01)
        replica = hosts[1].replica
        replica.write_keys_fn = lambda cmd: (frozenset((cmd.payload,)), False)
        top = replica.applied_index
        assert len(replica.log) >= retained and replica.follower_read_allowed("k")
        accepted = replica.log.entry(top + 1)
        accepted.accepted_ballot, accepted.accepted_value = (1, "n0"), Command.app("w1")
        replica.log.mark_chosen(top + 3, Command.app("w2"))  # above a hole
        check = replica._fr_conflict_free
        assert check("k") and not check("w1") and not check("w2")
        t0 = time.perf_counter()
        for _ in range(n):
            check("k")
        return time.perf_counter() - t0

    def run() -> int:
        trials = [(one(10), one(400)) for _ in range(3)]
        short_wall = min(short for short, _ in trials)
        long_wall = min(long for _, long in trials)
        run.self_timed = (n, long_wall)  # type: ignore[attr-defined]
        run.extra = {  # type: ignore[attr-defined]
            "us_per_check_retaining_10": round(short_wall / n * 1e6, 3),
            "us_per_check_retaining_400": round(long_wall / n * 1e6, 3),
            "cost_ratio_400_vs_10": round(long_wall / short_wall, 2) if short_wall else None,
        }
        return n

    return run


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------
def run_microbenchmarks(quick: bool = False, repeat: int = 3) -> dict:
    """Run the suite; return a JSON-ready report.

    ``repeat`` runs each benchmark several times and keeps the best —
    the standard defence against scheduler noise.  ``quick`` shrinks the
    workloads for tests and smoke runs.
    """
    n_events = 30_000 if quick else 300_000
    n_msgs = 20_000 if quick else 200_000
    e2e_duration = 5.0 if quick else 30.0
    n_writes = 2_000 if quick else 20_000
    n_lookups = 20_000 if quick else 200_000
    n_lookup_groups = 334 if quick else 3_334  # ~1k / ~10k nodes at 3 members/group
    n_slots = 100 if quick else 500
    garbage_duration = 5.0 if quick else 20.0

    specs: list[tuple[str, str, Callable[[], int]]] = [
        ("event_throughput", "events_per_s", _bench_event_throughput(n_events)),
        ("event_throughput_handles", "events_per_s", _bench_event_throughput_handles(n_events)),
        ("net_send_deliver", "msgs_per_s", _bench_net_send_deliver(n_msgs)),
        ("net_send_deliver_faulty", "msgs_per_s", _bench_net_send_deliver_faulty(n_msgs)),
        ("pooled_send_deliver", "msgs_per_s", _bench_pooled_send_deliver(n_msgs)),
        ("ring_lookup_10k", "lookups_per_s", _bench_ring_lookup(n_lookups, n_lookup_groups)),
        ("e2e_scatter_ops", "events_per_s", _bench_e2e_ops(e2e_duration)),
        ("write_path_saturation", "events_per_s", _bench_write_path(n_writes)),
        ("wal_fsync_per_ack", "pairs_per_s", _bench_wal_fsync_per_ack(2_000)),
        ("follower_read_window", "checks_per_s", _bench_follower_read_window(20_000)),
        ("accept_msgs_per_slot", "msgs_per_s", _bench_accept_msgs_per_slot(n_slots)),
        ("cyclic_garbage_per_op", "ops_per_s", _bench_cyclic_garbage_per_op(garbage_duration)),
        ("node_footprint", "nodes_per_s", _bench_node_footprint()),
    ]

    benchmarks = []
    for name, metric, fn in specs:
        best_rate = 0.0
        best_units = 0
        best_wall = 0.0
        best_extra: dict | None = None
        for _ in range(max(1, repeat)):
            t0 = time.perf_counter()
            units = fn()
            wall = time.perf_counter() - t0
            # Self-timing benchmarks measure only their targeted path
            # (excluding setup or an in-process baseline) and report it
            # via the ``self_timed`` hook.
            timed = getattr(fn, "self_timed", None)
            if timed is not None:
                units, wall = timed
            rate = units / wall if wall > 0 else 0.0
            if rate > best_rate:
                best_rate, best_units, best_wall = rate, units, wall
                best_extra = getattr(fn, "extra", None)
        entry = {
            "name": name,
            "metric": metric,
            "value": round(best_rate, 1),
            "units_completed": best_units,
            "wall_s": round(best_wall, 4),
        }
        ops = getattr(fn, "ops", None)
        if ops is not None:
            entry["ops_completed"] = ops
            entry["ops_per_s"] = round(ops / best_wall, 1) if best_wall > 0 else 0.0
        if best_extra:
            entry.update(best_extra)
        benchmarks.append(entry)

    return {
        "schema": 1,
        "quick": quick,
        "repeat": repeat,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": benchmarks,
    }


# ---------------------------------------------------------------------------
# BENCH_SIM.json emit / compare
# ---------------------------------------------------------------------------
def write_bench_file(report: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def load_bench_file(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def compare_benchmarks(old: dict, new: dict) -> list[dict]:
    """Per-benchmark ratio of new/old throughput (by matching name).

    Returns one row per benchmark present in ``new``; ``ratio`` is None
    when the old report lacks that benchmark (or measured a different
    workload size, which would make the ratio meaningless to threshold).
    """
    old_by_name = {b["name"]: b for b in old.get("benchmarks", [])}
    comparable = old.get("quick") == new.get("quick")
    rows = []
    for bench in new.get("benchmarks", []):
        prev = old_by_name.get(bench["name"])
        ratio = None
        if prev and comparable and prev.get("value"):
            ratio = bench["value"] / prev["value"]
        rows.append(
            {
                "name": bench["name"],
                "metric": bench["metric"],
                "old": prev.get("value") if prev else None,
                "new": bench["value"],
                "ratio": round(ratio, 3) if ratio is not None else None,
            }
        )
    return rows


def attach_baseline(report: dict, baseline: dict) -> None:
    """Embed a fixed reference measurement and per-benchmark speedups.

    ``baseline`` holds ``values`` (name -> throughput) measured once on
    some reference revision — e.g. the pre-optimization event loop — and
    a ``description`` saying what that revision was.  It is carried
    forward verbatim by ``repro perf --json`` so the speedup column
    survives report rewrites.  Speedups are only attached when the
    workloads match (same ``quick`` flag).
    """
    report["pre_pr_baseline"] = baseline
    if baseline.get("quick") != report.get("quick"):
        return
    values = baseline.get("values", {})
    for bench in report["benchmarks"]:
        ref = values.get(bench["name"])
        if ref:
            bench["speedup_vs_pre_pr"] = round(bench["value"] / ref, 2)


def render_report(report: dict, comparison: list[dict] | None = None) -> str:
    """Human-readable table of a report, optionally with old/new ratios."""
    lines = [
        f"simulator microbenchmarks  (python {report['python']}, "
        f"{'quick' if report['quick'] else 'full'} workloads, best of {report['repeat']})"
    ]
    ratio_by_name = {c["name"]: c for c in comparison or []}
    for bench in report["benchmarks"]:
        line = f"  {bench['name']:<26} {bench['value']:>12,.0f} {bench['metric']}"
        if "ops_per_s" in bench:
            line += f"  ({bench['ops_per_s']:,.0f} ops/s)"
        if "speedup_vs_pre_pr" in bench:
            line += f"  [{bench['speedup_vs_pre_pr']:.2f}x vs pre-PR]"
        cmp_row = ratio_by_name.get(bench["name"])
        if cmp_row and cmp_row["ratio"] is not None:
            line += f"  [{cmp_row['ratio']:.2f}x vs previous]"
        lines.append(line)
    return "\n".join(lines)
