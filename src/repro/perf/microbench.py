"""Microbenchmarks for the simulation core, gated on numbers that hold on
any host.

Each benchmark runs a fixed, seeded workload and returns its numbers as
a dict: either a ratio of two timings taken in the same run (the two
sides of an A/B) or an exact count.
Neither moves with the host's speed, so each can carry a bound.  The
bounds live in one place, :data:`GATES`, which ``repro perf`` evaluates
itself: it prints every gate's verdict and exits 1 if any fails.

The report is written to ``BENCH_SIM.json`` at the repo root by
``scripts/check_perf.sh``, so a change to a ratio or a count shows up
as a diff for review.  Host cost per whole op is measured end to end
by the perf ledger (``host_us_per_op``), not here.
"""

from __future__ import annotations

import gc
import json
import operator
import platform
import time
import tracemalloc
from typing import Any, Callable

from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork


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


def _bench_cyclic_garbage_per_op(duration: float) -> dict:
    """Work left for the cyclic collector per client op, as a count.

    ``GATES`` holds ``cyclic_garbage_per_op`` at exactly 0: a finished
    op is freed by reference count (``spawn``'s process object), so the
    collector has nothing to find in the steady state.
    """
    unreachable, ops = cyclic_garbage(duration)
    return {
        "cyclic_garbage_per_op": round(unreachable / max(1, ops), 3),
        "unreachable_objects": unreachable,
    }


# Ceiling on node_footprint's tracked_objects_per_node, held by
# GATES and tests/test_gc_pacing.py: 46.0 measured on
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


# Ceiling on op_footprint's tracked_objects_per_op at either read
# fraction, held by GATES and tests/test_gc_pacing.py:
# 2.186 (read fraction 0.5; 1.927 at 0.1) measured on CPython 3.11,
# plus 10%.
OP_FOOTPRINT_CEILING = 2.40
OP_FOOTPRINT_READ_FRACTIONS = (0.5, 0.1)


def op_footprint(read_fraction: float, duration: float = 20.0) -> tuple[Any, dict]:
    """What a window of finished client ops leaves behind, per op.

    Thirty nodes in ten groups (the builder's default ring) under eight
    closed-loop clients over 400 keys: 1 simulated second of load
    warms the clients' caches, then a ``duration`` window runs under
    tracemalloc.  Counted after a full collection, per op completed in
    the window: the collector-tracked objects the window added (its
    ``OpRecord`` objects, the results they hold, uncompacted log
    entries and whatever else the ops kept), an exact count, the same
    on every run and in any process; and the bytes tracemalloc traces
    that it added (informational: allocator rounding and dict resizes
    move it).
    Returns the deployment (its clients hold the records) and the
    counts, with ``ops``, the window's op count.
    """
    from repro.harness.builders import DeploymentParams, build_scatter_deployment
    from repro.workloads import UniformKeys
    from repro.workloads.driver import ClosedLoopWorkload

    deployment = build_scatter_deployment(DeploymentParams(n_clients=8))
    workload = ClosedLoopWorkload(
        deployment.sim, deployment.clients, UniformKeys(400), read_fraction=read_fraction
    )
    workload.start()
    deployment.sim.run_for(1.0)
    before = len(workload.all_records())
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        deployment.sim.run_for(duration)
        ops = len(workload.all_records()) - before
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tracked = len(gc.get_objects()) - tracked
    workload.stop()
    return deployment, {
        "ops": ops,
        "tracked_objects_per_op": round(tracked / ops, 3),
        "traced_bytes_per_op": round(traced / ops),
    }


def _bench_op_footprint() -> dict:
    """What a finished op keeps, as counts (see :func:`op_footprint`).

    One entry per read fraction in ``OP_FOOTPRINT_READ_FRACTIONS``,
    suffixed ``_r50`` and ``_r10``; ``GATES`` holds each
    ``tracked_objects_per_op`` at or under ``OP_FOOTPRINT_CEILING``, as
    ``tests/test_gc_pacing.py`` does.
    """
    numbers: dict = {}
    for fraction in OP_FOOTPRINT_READ_FRACTIONS:
        _, counts = op_footprint(fraction)
        del counts["ops"]
        suffix = f"_r{round(fraction * 100)}"
        numbers.update({name + suffix: value for name, value in counts.items()})
    return numbers


def _slowdown(base: Callable[[], float], other: Callable[[], float]) -> float:
    """``other``'s wall time over ``base``'s, each the best of five trials
    with the two sides alternated.  A trial is a fraction of a second or
    less, so one collector pause or a slow phase of a shared host can
    swing it; the minimum drops those, and five trials let each side
    reach its floor even in a process that has just started.
    """
    trials = [(base(), other()) for _ in range(5)]
    return min(o for _, o in trials) / min(b for b, _ in trials)


def _bench_ring_lookup(n_lookups: int, n_groups: int) -> dict:
    """Routing-table lookups on a large ring: RingTable bisect vs a
    linear containment scan over the same infos.

    A ``n_groups``-arc tiled ring stands in for a ~10k-node deployment
    (3 members per group).  The linear side is scaled down (it is
    hundreds of times slower); the speedup compares per-lookup costs.
    The two paths are cross-checked for identical picks on a key
    sample: the scan is the rule the client's table must answer.
    """
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
        # The routing rule RingTable precomputes.
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

    return {
        "groups": n_groups,
        "speedup_vs_linear": round(linear_wall / n_linear / (table_wall / n_lookups), 2),
    }


def _bench_pooled_send_deliver(n: int) -> dict:
    """The fault-free send->deliver path against the checked one, in one
    process: two endpoints ping-pong ``n`` messages with direct dispatch
    and with every message forced through ``_deliver`` by a one-way
    block between two addresses that never exchange traffic (every
    check runs and passes).
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

    return {"speedup_vs_checked": round(_slowdown(lambda: one(False), lambda: one(True)), 2)}


def _bench_accepts_per_slot(n: int) -> dict:
    """Network cost of phase 2 as a count: ``n`` proposals, one at a
    time, through a 3-replica and a 5-replica group, counting every
    Accept-family message sent per chosen slot.  ``GATES`` holds them at
    exactly 2·(n−1): the leader votes locally.
    """

    def one(members: int) -> float:
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
        return round(sum(kind in family for _src, _dst, kind in sent) / max(1, chosen), 3)

    return {"msgs_per_slot_n3": one(3), "msgs_per_slot_n5": one(5)}


def _bench_wal_fsync_per_ack(n: int) -> dict:
    """Per-ack WAL cost against log length: ``n`` append + fsync pairs
    on a region already retaining 100 synced records and on one
    retaining 10,000, in one process.  An acceptor acks once per
    Accept, so the pair must cost the same on both; ``GATES`` holds the
    cost ratio at or under 2 whatever the host's speed.
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

    return {"cost_ratio_10k_vs_100": round(_slowdown(lambda: one(100), lambda: one(10_000)), 2)}


def _bench_follower_read_window(n: int) -> dict:
    """Follower-read conflict check against log length: ``n`` checks of
    the same two-entry window (one accepted and one caught-up write,
    neither on the key read) on a follower whose log retains 10 applied
    entries and on one retaining 400, in one process.  The window is
    slots ``(applied_index, top]``, so the check must cost the same on
    both; ``GATES`` holds the cost ratio under 2.
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

    return {"cost_ratio_400_vs_10": round(_slowdown(lambda: one(10), lambda: one(400)), 2)}


# ---------------------------------------------------------------------------
# Gates and runner
# ---------------------------------------------------------------------------
# Every bound on a reported number: (bench, key, comparison, bound).  A
# gate whose number is missing from the report fails.
GATES: tuple[tuple[str, str, str, float], ...] = (
    # Direct dispatch beats the checked delivery path.
    ("pooled_send_deliver", "speedup_vs_checked", ">=", 1.2),
    # The bisect routing table beats the linear scan.
    ("ring_lookup_10k", "speedup_vs_linear", ">=", 1.5),
    # Per-ack WAL cost and a follower read's conflict check are flat in
    # log length (a barrier scanning the whole log, or a sort of the
    # retained log, measures several times that).
    ("wal_fsync_per_ack", "cost_ratio_10k_vs_100", "<=", 2.0),
    ("follower_read_window", "cost_ratio_400_vs_10", "<", 2.0),
    # Exact counts, the same on every host.
    ("accept_msgs_per_slot", "msgs_per_slot_n3", "==", 4.0),
    ("accept_msgs_per_slot", "msgs_per_slot_n5", "==", 8.0),
    ("cyclic_garbage_per_op", "cyclic_garbage_per_op", "==", 0),
    ("node_footprint", "tracked_objects_per_node", "<=", NODE_FOOTPRINT_CEILING),
    ("op_footprint", "tracked_objects_per_op_r50", "<=", OP_FOOTPRINT_CEILING),
    ("op_footprint", "tracked_objects_per_op_r10", "<=", OP_FOOTPRINT_CEILING),
)

_COMPARISONS = {">=": operator.ge, "<=": operator.le, "<": operator.lt, "==": operator.eq}


def run_microbenchmarks(quick: bool = False) -> dict:
    """Run the suite; return a JSON-ready report.

    ``quick`` shrinks the workloads for tests and smoke runs.
    """
    n_msgs = 20_000 if quick else 200_000
    n_lookups = 20_000 if quick else 200_000
    n_lookup_groups = 334 if quick else 3_334  # ~1k / ~10k nodes at 3 members/group
    n_slots = 100 if quick else 500
    garbage_duration = 5.0 if quick else 20.0

    numbers = {
        "pooled_send_deliver": _bench_pooled_send_deliver(n_msgs),
        "ring_lookup_10k": _bench_ring_lookup(n_lookups, n_lookup_groups),
        "wal_fsync_per_ack": _bench_wal_fsync_per_ack(2_000),
        "follower_read_window": _bench_follower_read_window(20_000),
        "accept_msgs_per_slot": _bench_accepts_per_slot(n_slots),
        "cyclic_garbage_per_op": _bench_cyclic_garbage_per_op(garbage_duration),
        "node_footprint": node_footprint()[1],
        "op_footprint": _bench_op_footprint(),
    }
    return {
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": [{"name": name, **values} for name, values in numbers.items()],
    }


def check_gates(report: dict) -> list[tuple[bool, str]]:
    """Each gate in ``GATES`` judged on ``report``: whether it holds, and
    the gate with the number it read."""
    by_name = {bench["name"]: bench for bench in report["benchmarks"]}
    verdicts = []
    for bench, key, comparison, bound in GATES:
        got = by_name.get(bench, {}).get(key)
        holds = got is not None and _COMPARISONS[comparison](got, bound)
        verdicts.append((holds, f"{bench} {key} {got} {comparison} {bound}"))
    return verdicts


def write_bench_file(report: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def render_report(report: dict) -> str:
    """Human-readable table of a report's numbers and its gates' verdicts."""
    lines = [
        f"simulator microbenchmarks  (python {report['python']}, "
        f"{'quick' if report['quick'] else 'full'} workloads)"
    ]
    for bench in report["benchmarks"]:
        numbers = "  ".join(f"{key}={value}" for key, value in bench.items() if key != "name")
        lines.append(f"  {bench['name']:<22} {numbers}")
    lines.append("gates")
    for holds, gate in check_gates(report):
        lines.append(f"  {'ok  ' if holds else 'FAIL'}  {gate}")
    return "\n".join(lines)
