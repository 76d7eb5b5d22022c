"""Registry and arithmetic of the perf ledger.

Names every workload and every metric once (BENCHMARK.json and the
README tables are checked against these lists by the tests), and owns
the ledger's percentile, window, fingerprint and failover code.  It
imports nothing from the program under test: records arrive duck-typed
(``op``, ``key``, ``invoke_time``, ``response_time``, ``completed``,
``latency``, ``hops``, ``attempts``) from :mod:`stack`.
"""

from __future__ import annotations

import re
import statistics
import time
from dataclasses import dataclass, field

# One contract run measures for this many host seconds (BENCHMARK.json
# ``run_seconds``); ``Shape.measure_sim_s`` is sized so that the window
# takes about this long on the 2-core host the baseline was taken on.
RUN_SECONDS = 8

# The traced passes run this share of the untraced window
# (churn_recover: the whole window, one seed).
TRACED_SHARE = 0.25

MESSAGE_DELAY = "LogNormalLatency(0.004, 0.4) one-way, the builders' default"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Shape:
    """One closed-loop workload: deployment, clients, keys, window."""

    name: str
    why: str
    n_nodes: int
    n_groups: int
    n_clients: int
    n_keys: int
    read_fraction: float
    measure_sim_s: float  # gated window length at --seconds RUN_SECONDS, per seed
    # A second window under churn_recover's fault schedule, after the gated
    # one.  End-to-end metrics come from the gated window, per-layer ones
    # from the fault window (see summarize).
    fault_sim_s: float = 0.0
    warm_sim_s: float = 3.0
    think_time: float = 0.0
    # Knobs and cost-model settings asked for by name; stack.py sets each
    # only if the program's config dataclasses still have the field.
    settings: dict = field(default_factory=dict)
    policy: dict | None = None
    pooled_seeds: int = 1  # churn_recover pools seeds S, S+1, S+2
    setups: int = 3  # set-ups timed per run; setup_s is their median


_CHURN_POLICY = {"target_size": 5, "split_size": 11, "merge_size": 3}

SHAPES: tuple[Shape, ...] = (
    Shape(
        name="kv_mixed",
        why="Seed path of E1-E16 (30 nodes, all defaults): latency is network-bound and "
        "host time spreads over dht client, net futures and per-slot consensus.",
        n_nodes=30, n_groups=10, n_clients=8, n_keys=400, read_fraction=0.5,
        measure_sim_s=120.0,
    ),
    Shape(
        name="write_sat",
        why="E19 full write stack saturating leader CPU and WAL: consensus batching/pipelining "
        "and storage group commit do the work; the one workload where ops/s is capacity.",
        n_nodes=9, n_groups=3, n_clients=48, n_keys=60, read_fraction=0.1,
        measure_sim_s=28.0,
        settings={
            "batch": True, "batch_window": 0.003, "batch_max": 16,
            "pipeline_depth": 8, "accept_coalescing": True,
            "storage": True, "fsync_coalesce": 0.002,
            "msg_service_time": 0.001, "op_service_time": 0.0002,
        },
    ),
    Shape(
        name="read_fanout",
        why="E20 cell, one group of 5 with follower reads and round-robin routing: grants, quorum "
        "expansion and bounces trade read throughput against put latency.",
        n_nodes=5, n_groups=1, n_clients=24, n_keys=40, read_fraction=0.9,
        measure_sim_s=60.0,
        settings={"follower_reads": True, "read_routing": "round_robin", "op_service_time": 0.002},
        policy=_CHURN_POLICY,
    ),
    Shape(
        name="churn_recover",
        why="Fixed schedule of leader power-fails, departures with joins and 2PC group operations "
        "on storage: the only workload running elections, txn, policies and WAL recovery.",
        n_nodes=30, n_groups=6, n_clients=12, n_keys=200, read_fraction=0.5,
        measure_sim_s=20.0, fault_sim_s=32.0, warm_sim_s=5.0, think_time=0.02,
        settings={"storage": True},
        policy=_CHURN_POLICY, pooled_seeds=3, setups=1,
    ),
    Shape(
        name="ring_2000",
        why="E21 shape, 2,000 nodes in 666 groups with client route tables: heartbeats and timers "
        "dominate, so sim.loop, sim.network and dht.route carry the cost; large set-up and RSS.",
        n_nodes=2000, n_groups=666, n_clients=40, n_keys=16000, read_fraction=0.9,
        measure_sim_s=7.5, warm_sim_s=6.0,
        settings={"route_table": True, "cache_size": 682},
    ),
)
SHAPE_BY_NAME = {shape.name: shape for shape in SHAPES}

# churn_recover's schedule, in simulated seconds from the window start.
KILL_EVERY = 4.0
KILL_FIRST = 1.0
RESTART_AFTER = 2.0
KILL_QUIET_TAIL = 3.0  # no kill this close to the window end: its sample needs room
DEPART_EVERY = 12.0
DEPART_FIRST = 2.5
REPLACE_AFTER = 0.5
GROUP_OP_EVERY = 10.0
GROUP_OP_FIRST = 3.5


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    base: str  # time base: "host" | "sim" | "count"
    source: str  # "e2e" | "A" | "B" | "C" | "D"
    what: str
    bound: float | None = None  # end-to-end only: share of the parent's median


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host", "e2e",
           "build deployment + warm-up, before the window; median of the run's set-ups", 0.25),
    Metric("host_us_per_op", "us", "lower", "host", "e2e",
           "host time of the window / ops completed in it", 0.25),
    Metric("host_peak_rss_mb", "MB", "lower", "host", "e2e",
           "ru_maxrss of the workload's interpreter after its first window", 0.12),
    Metric("sim_ops_per_s", "1/s", "higher", "sim", "e2e",
           "ops completed / simulated window length", 0.04),
    Metric("sim_p50_ms", "ms", "lower", "sim", "e2e", "median client latency, all ops", 0.05),
    Metric("sim_p99_ms", "ms", "lower", "sim", "e2e", "99th percentile client latency", 0.10),
    Metric("sim_p999_ms", "ms", "lower", "sim", "e2e",
           "highest percentile with >=10 samples beyond it (99.9 at >=10k ops)", 0.20),
    Metric("sim_get_p50_ms", "ms", "lower", "sim", "e2e", "median latency over gets", 0.03),
    Metric("sim_put_p50_ms", "ms", "lower", "sim", "e2e", "median latency over puts", 0.03),
)

# End-to-end by nature, but 0 on steady workloads or defined on one
# workload only, which BENCHMARK.json's end_to_end list does not allow.
# They are printed with the end-to-end table, travel in ``per_layer``
# and in the result's ``failed``/``correct`` keys, and fail the run.
END_TO_END_UNGATED: tuple[Metric, ...] = (
    Metric("sim_failed_share", "share", "lower", "sim", "e2e",
           "(attempted - completed) / attempted; timed-out or unresolved ops are failed"),
    Metric("sim_violations", "count", "lower", "count", "e2e",
           "check_history linearizability violations + system.audit() findings; must be 0"),
    Metric("sim_failover_p50_ms", "ms", "lower", "sim", "e2e",
           "churn_recover: leader kill -> first completion of an op invoked after it on a key "
           "in the killed leader's range; median over kills (0 where no leader is killed)"),
    Metric("sim_failovers", "count", "higher", "count", "e2e",
           "leader kills that produced a failover sample"),
)

PROFILE_LAYERS = (
    "sim.loop", "sim.network", "net", "consensus", "group", "txn", "storage",
    "store", "dht", "policies", "workloads", "obs", "stdlib",
)


def _layer_metrics() -> tuple[Metric, ...]:
    out = []
    for layer in PROFILE_LAYERS:
        out.append(Metric(f"{layer}.self_us_per_op", "us", "lower", "host", "B",
                          f"cProfile tottime summed over {layer}'s files / ops"))
        out.append(Metric(f"{layer}.calls_per_op", "count", "lower", "count", "B",
                          f"cProfile ncalls summed over {layer}'s files / ops"))
    return tuple(out)


PER_LAYER: tuple[Metric, ...] = END_TO_END_UNGATED + (
    # Source A: public counters of an untraced window.
    Metric("sim.loop.events_per_op", "count", "lower", "count", "A", "events processed / ops"),
    Metric("sim.network.msgs_per_op", "count", "lower", "count", "A", "messages sent / ops"),
    Metric("sim.loop.events_per_host_s", "1/s", "higher", "host", "A",
           "events processed / host seconds of the window"),
    Metric("sim.loop.late_slowdown_x", "x", "lower", "host", "A",
           "host us/event in the last third of the window / first third"),
    Metric("sim.network.undelivered_share", "share", "lower", "count", "A",
           "(dropped + sent to a dead endpoint) / sent"),
    Metric("dht.hops_per_op", "count", "lower", "count", "A", "mean OpRecord.hops"),
    Metric("dht.attempts_per_op", "count", "lower", "count", "A", "mean OpRecord.attempts"),
    Metric("storage.fsyncs_per_op", "count", "lower", "count", "A", "completed fsyncs / ops"),
    Metric("storage.recoveries", "count", "lower", "count", "A", "WAL recoveries in the window"),
    Metric("storage.replayed_per_recovery", "count", "lower", "count", "A",
           "WAL records replayed / recovery"),
    Metric("storage.snapshot_recovery_share", "share", "higher", "count", "A",
           "recoveries that started from a snapshot / recoveries"),
    Metric("analysis.check_us_per_op", "us", "lower", "host", "A",
           "host time of check_history + percentiles / ops; checker cost, not stack cost"),
    Metric("harness.knobs_skipped", "count", "lower", "count", "A",
           "settings asked for that the program's config no longer has"),
    Metric("harness.goodput_ops_per_s", "1/s", "higher", "sim", "A",
           "ops completed / simulated window length of this pass"),
    Metric("harness.p99_ms", "ms", "lower", "sim", "A", "99th percentile latency of this pass"),
    Metric("harness.host_us_per_op", "us", "lower", "host", "A",
           "host time / ops of this pass's untraced window"),
    Metric("harness.gc_share", "share", "lower", "host", "A",
           "host time inside garbage collections (gc.callbacks) / host time of the window"),
) + _layer_metrics() + (
    Metric("profile.overhead_x", "x", "lower", "host", "B",
           "host time of the profiled window / untraced window"),
    Metric("profile.attributed_share", "share", "higher", "host", "B",
           "sum of layer self times / cProfile's own total for the window"),
    # Source C: repro.obs counters, histograms and spans.
    Metric("consensus.slots_per_op", "count", "lower", "count", "C", "slots chosen / ops"),
    Metric("consensus.accept_rounds_per_slot", "count", "lower", "count", "C",
           "Accept broadcasts incl. retries / slots chosen"),
    Metric("consensus.retransmissions_per_kop", "count", "lower", "count", "C",
           "pending slots retransmitted / 1000 ops"),
    Metric("consensus.slot_quorum_ms_p50", "ms", "lower", "sim", "C",
           "paxos.slot span (Accept broadcast -> chosen), median"),
    Metric("consensus.slot_quorum_ms_p99", "ms", "lower", "sim", "C", "same, 99th percentile"),
    Metric("group.commit_ms_p50", "ms", "lower", "sim", "C",
           "leader propose -> apply (group.commit_latency), median"),
    Metric("group.commit_ms_p99", "ms", "lower", "sim", "C", "same, 99th percentile"),
    Metric("consensus.heartbeat_msg_share", "share", "lower", "count", "C",
           "(Heartbeat + HeartbeatAck) / messages sent"),
    Metric("consensus.elections", "count", "lower", "count", "C",
           "campaigns started in the whole pass, set-up included"),
    Metric("consensus.elections_won_share", "share", "higher", "count", "C",
           "campaigns won / campaigns started"),
    Metric("group.lease_read_share", "share", "higher", "count", "C",
           "leader Gets served under the lease / Gets reaching a leader"),
    Metric("group.follower_read_share", "share", "higher", "count", "C",
           "Gets served at a follower / Gets served"),
    Metric("group.read_bounce_share", "share", "lower", "count", "C",
           "follower Gets bounced / follower Gets tried"),
    Metric("txn.committed", "count", "higher", "count", "C", "group operations committed"),
    Metric("txn.abort_share", "share", "lower", "count", "C",
           "group operations not committed / group operations finished"),
    Metric("txn.op_ms_p50", "ms", "lower", "sim", "C", "txn.op span, median"),
    Metric("txn.prepare_ms_p50", "ms", "lower", "sim", "C", "txn.prepare span, median"),
    Metric("group.freeze_ms_p99", "ms", "lower", "sim", "C", "group.freeze span, 99th percentile"),
    Metric("storage.appends_per_fsync", "count", "higher", "count", "C",
           "WAL appends / fsyncs (group-commit factor)"),
    Metric("net.rpc_failures_per_kop", "count", "lower", "count", "C",
           "client RPC attempts without a reply / 1000 ops"),
    Metric("obs.trace_overhead_x", "x", "lower", "host", "C",
           "host time of the window with a Tracer installed / untraced"),
    # Source D: isolated microbenches, same on every workload.
    Metric("sim.loop.iso_ns_per_event", "ns", "lower", "host", "D",
           "self-rescheduling timer event, median of 5"),
    Metric("sim.network.iso_ns_per_msg", "ns", "lower", "host", "D",
           "two-endpoint ping-pong under the default delay model, median of 5"),
    Metric("dht.route.iso_ns_per_lookup", "ns", "lower", "host", "D",
           "RingTable.lookup over 666 groups, median of 5"),
    Metric("consensus.iso_us_per_slot", "us", "lower", "host", "D",
           "3-replica build_cluster, propose pump, defaults, median of 5"),
)

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def is_exact(metric: Metric) -> bool:
    """Does the metric repeat exactly for a fixed seed and window?"""
    return metric.base in ("sim", "count") and metric.source in ("e2e", "A", "C")


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------
def percentile(ordered: list[float], p: float) -> float:
    """p in [0, 100] of an already sorted list, linear interpolation."""
    if not ordered:
        return 0.0
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile (capped at 99.9) with >= 10 of n samples beyond it."""
    if n < 20:
        return 50.0
    return min(99.9, 100.0 * (1.0 - 10.0 / n))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fnv1a64(parts) -> str:
    """64-bit FNV-1a over the repr of each part, as 16 hex digits."""
    value = 0xCBF29CE484222325
    for part in parts:
        for byte in repr(part).encode():
            value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{value:016x}"


def in_range(key: int, lo: int, hi: int) -> bool:
    """Ring arc [lo, hi); lo == hi is the whole ring."""
    if lo < hi:
        return lo <= key < hi
    return key >= lo or key < hi


def failover_samples(records, kills) -> list[float | None]:
    """Seconds from each kill to the first completion after it in its range.

    ``kills`` is ``[(kill_time, range_lo, range_hi)]``.  A sample is the
    earliest ``response_time`` among completed ops invoked after the
    kill on a key in the range, minus the kill time; ``None`` when no
    such op exists.
    """
    samples: list[float | None] = []
    for kill_time, lo, hi in kills:
        first = None
        for r in records:
            if r.invoke_time > kill_time and r.completed and in_range(r.key, lo, hi):
                if first is None or r.response_time < first:
                    first = r.response_time
        samples.append(None if first is None else first - kill_time)
    return samples


def _pooled(windows: list[dict]) -> dict:
    """Ops, latencies and counter deltas of some windows taken as one."""
    records = [r for w in windows for r in w["records"]]
    done = [r for r in records if r.completed]
    return {
        "records": records,
        "done": done,
        "latencies": sorted(r.latency for r in done),
        "sim_s": sum(w["sim_s"] for w in windows),
        "host_s": sum(w["host_s"] for w in windows),
        "gc_host_s": sum(w["gc_host_s"] for w in windows),
        "delta": {k: sum(w["delta"][k] for w in windows) for k in windows[0]["delta"]},
    }


def summarize(passes: list[dict], setups: list[float], rss_mb: float) -> dict:
    """Metrics of one run, pooled over its passes (one per seed).

    Each pass is the dict :func:`stack.run_pass` returns.  End-to-end
    values come from the passes' ``gate`` windows; source-A per-layer
    values from their ``fault`` windows where the workload has one, so
    that churn_recover's gated numbers are those of its fault-free
    lead-in and everything its faults touch is reported beside them.
    """
    t0 = time.perf_counter()
    gate = _pooled([p["gate"] for p in passes])
    work = _pooled([p.get("fault") or p["gate"] for p in passes])
    latencies, ops = gate["latencies"], len(gate["done"])
    tail_p = tail_percentile(len(latencies))
    gets = sorted(r.latency for r in gate["done"] if r.op == "get")
    puts = sorted(r.latency for r in gate["done"] if r.op == "put")
    e2e = {
        "setup_s": statistics.median(setups),
        "host_us_per_op": 1e6 * ratio(gate["host_s"], ops),
        "host_peak_rss_mb": rss_mb,
        "sim_ops_per_s": ratio(ops, gate["sim_s"]),
        "sim_p50_ms": 1e3 * percentile(latencies, 50),
        "sim_p99_ms": 1e3 * percentile(latencies, 99),
        "sim_p999_ms": 1e3 * percentile(latencies, tail_p),
        "sim_get_p50_ms": 1e3 * percentile(gets, 50),
        "sim_put_p50_ms": 1e3 * percentile(puts, 50),
    }
    work_p99 = 1e3 * percentile(work["latencies"], 99)
    percentile_host_s = time.perf_counter() - t0

    windows = [w for p in passes for w in (p["gate"], p.get("fault")) if w]
    records = [r for w in windows for r in w["records"]]
    completed = sum(1 for r in records if r.completed)
    failovers = [
        s for p in passes if p.get("fault")
        for s in failover_samples(p["fault"]["records"], p["kills"])
    ]
    sampled = sorted(s for s in failovers if s is not None)
    work_ops, delta = len(work["done"]), work["delta"]
    thirds = [
        ratio(sum(w["slices"][i][0] for w in windows), sum(w["slices"][i][1] for w in windows))
        for i in (0, -1)
    ]
    check_host_s = sum(p["check_host_s"] for p in passes) + percentile_host_s
    layers = {
        "sim_failed_share": ratio(len(records) - completed, len(records)),
        "sim_violations": sum(p["violations"] + len(p["audit"]) for p in passes),
        "sim_failover_p50_ms": 1e3 * percentile(sampled, 50),
        "sim_failovers": len(sampled),
        "sim.loop.events_per_op": ratio(delta["events"], work_ops),
        "sim.network.msgs_per_op": ratio(delta["sent"], work_ops),
        "sim.loop.events_per_host_s": ratio(delta["events"], work["host_s"]),
        "sim.loop.late_slowdown_x": ratio(thirds[1], thirds[0]),
        "sim.network.undelivered_share": ratio(delta["dropped"] + delta["to_dead"], delta["sent"]),
        "dht.hops_per_op": ratio(sum(r.hops for r in work["done"]), work_ops),
        "dht.attempts_per_op": ratio(sum(r.attempts for r in work["done"]), work_ops),
        "storage.fsyncs_per_op": ratio(delta["fsyncs"], work_ops),
        "storage.recoveries": delta["recoveries"],
        "storage.replayed_per_recovery": ratio(delta["replayed"], delta["recoveries"]),
        "storage.snapshot_recovery_share": ratio(delta["snapshot_recoveries"], delta["recoveries"]),
        "analysis.check_us_per_op": 1e6 * ratio(check_host_s, completed),
        "harness.knobs_skipped": len(passes[0]["skipped"]),
        "harness.goodput_ops_per_s": ratio(work_ops, work["sim_s"]),
        "harness.p99_ms": work_p99,
        "harness.host_us_per_op": 1e6 * ratio(work["host_s"], work_ops),
        "harness.gc_share": ratio(work["gc_host_s"], work["host_s"]),
    }
    fingerprint = fnv1a64(
        part
        for w in windows
        for part in [w["delta"]["events"], w["delta"]["sent"], len(w["records"])]
        + sorted(r.latency for r in w["records"] if r.completed)
    )
    return {
        "e2e": e2e,
        "layers": layers,
        "fingerprint": fingerprint,
        "counts": {
            "attempted": len(gate["records"]),
            "completed": ops,
            "all_attempted": len(records),
            "all_completed": completed,
            "unresolved": sum(1 for r in records if r.response_time < 0),
            "kills": len(failovers),
            "tail_percentile": tail_p,
            "tail_samples_beyond": int(len(latencies) * (1 - tail_p / 100.0)),
            "audit": [msg for p in passes for msg in p["audit"]],
            "skipped": passes[0]["skipped"],
            "layer_ops": work_ops,
            "host_s": sum(w["host_s"] for w in windows),
            "sim_s": sum(w["sim_s"] for w in windows),
            "group_ops_started": sum(p["group_ops_started"] for p in passes),
        },
    }
