"""The ledger's only contact with the program under test.

Every import of ``repro`` in the benchmark lives here.  The module builds
the deployment a :class:`ledger.Shape` describes through the public
builders, drives one closed-loop window, and hands back raw counters,
records and timings; :mod:`ledger` turns them into metrics.

Settings are asked for by name and set only where the program's config
dataclasses still have the field, so a change that makes a mechanism
unconditional and deletes its knob does not have to edit the benchmark:
the name is listed in the output and counted in ``harness.knobs_skipped``.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import os
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import ledger

import repro
from repro.analysis import check_history
from repro.consensus.commands import Command
from repro.consensus.harness import build_cluster
from repro.consensus.replica import PaxosConfig
from repro.dht.client import ClientConfig
from repro.dht.ring import KEY_SPACE, KeyRange
from repro.dht.route import RingTable
from repro.dht.scatter import ScatterConfig
from repro.faults import FaultTarget
from repro.group.info import GroupInfo
from repro.harness.builders import (
    EXPERIMENT_PAXOS,
    DeploymentParams,
    build_scatter_deployment,
    experiment_scatter_config,
)
from repro.obs import Tracer, tracing
from repro.policies import ScatterPolicy
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.storage.disk import StorageConfig
from repro.workloads import UniformKeys
from repro.workloads.driver import ClosedLoopWorkload

# Which config dataclass each setting belongs to.
_HOMES = {
    "paxos": (PaxosConfig, ("batch", "batch_window", "batch_max", "pipeline_depth",
                            "accept_coalescing", "follower_reads")),
    "storage": (StorageConfig, ("fsync_coalesce",)),
    "client": (ClientConfig, ("read_routing", "route_table", "cache_size")),
    "scatter": (ScatterConfig, ("storage", "msg_service_time", "op_service_time")),
}


def resolve_settings(settings: dict) -> tuple[dict[str, dict], list[str]]:
    """Split ``settings`` by config class; names no class has are skipped."""
    kept: dict[str, dict] = {home: {} for home in _HOMES}
    skipped = []
    for name, value in settings.items():
        home = next((h for h, (_cls, names) in _HOMES.items() if name in names), None)
        if home is None or name not in {f.name for f in dataclasses.fields(_HOMES[home][0])}:
            skipped.append(name)
        else:
            kept[home][name] = value
    return kept, sorted(skipped)


def build(shape: ledger.Shape, seed: int):
    """Deployment (builder warm-up included) and the skipped setting names."""
    kept, skipped = resolve_settings(shape.settings)
    if kept["scatter"].pop("storage", False):
        kept["scatter"]["storage"] = StorageConfig(**kept["storage"])
    config = experiment_scatter_config(
        paxos=dataclasses.replace(EXPERIMENT_PAXOS, **kept["paxos"]), **kept["scatter"]
    )
    params = DeploymentParams(
        n_nodes=shape.n_nodes, n_groups=shape.n_groups, n_clients=shape.n_clients, seed=seed
    )
    deployment = build_scatter_deployment(
        params,
        policy=ScatterPolicy(**shape.policy) if shape.policy else None,
        config=config,
        client_config=ClientConfig(**kept["client"]),
    )
    return deployment, skipped


def _counters(deployment) -> dict[str, int]:
    stats = deployment.net.stats
    regions = [
        region
        for node in deployment.system.nodes.values()
        if node.disk is not None
        for region in node.disk.regions.values()
    ]
    return {
        "events": deployment.sim.events_processed,
        "sent": stats.sent,
        "dropped": stats.dropped,
        "to_dead": stats.to_dead,
        "fsyncs": sum(r.fsyncs for r in regions),
        "recoveries": sum(r.recoveries for r in regions),
        "replayed": sum(r.replayed_total for r in regions),
        "snapshot_recoveries": sum(r.snapshot_recoveries for r in regions),
    }


class ChurnSchedule:
    """churn_recover's fixed fault and group-operation schedule.

    Owned by the benchmark so that the same faults hit every commit:
    leader power-fails in round-robin group order with a restart (WAL
    replay), permanent non-leader departures with a replacement join,
    and group operations started the way E5 starts them, alternating
    repartition and migrate.  The only randomness, which non-leader
    departs, comes from ``seed``.
    """

    def __init__(self, deployment, seed: int, duration: float) -> None:
        self.sim = deployment.sim
        self.system = deployment.system
        self.target = FaultTarget.for_system(deployment.system)
        self.rng = random.Random(seed)
        self.kills: list[tuple[float, int, int]] = []
        self.group_ops_started = 0
        self._kill_cursor = 0
        self._op_cursor = 0
        for first, every, tail, fn in (
            (ledger.KILL_FIRST, ledger.KILL_EVERY, ledger.KILL_QUIET_TAIL, self._kill_leader),
            (ledger.DEPART_FIRST, ledger.DEPART_EVERY, 0.0, self._depart),
            (ledger.GROUP_OP_FIRST, ledger.GROUP_OP_EVERY, 0.0, self._group_op),
        ):
            at = first
            while at < duration - tail:
                self.sim.schedule(at, fn)
                at += every

    def _next_leader(self, cursor: int):
        """Leader replica of the next group (by id order) that has one."""
        gids = sorted(self.system.active_groups())
        for probe in range(len(gids)):
            leader = self.system.leader_of(gids[(cursor + probe) % len(gids)])
            if leader is not None:
                return leader, cursor + probe + 1
        return None, cursor

    def _kill_leader(self) -> None:
        leader, self._kill_cursor = self._next_leader(self._kill_cursor)
        if leader is None:
            return
        node_id = leader.host.node_id
        self.kills.append((self.sim.now, leader.range.lo, leader.range.hi))
        self.target.crash(node_id)
        self.sim.schedule(ledger.RESTART_AFTER, self.target.restart, node_id)

    def _depart(self) -> None:
        leaders = {
            name
            for name, node in self.system.nodes.items()
            if any(replica.is_leader for replica in node.groups.values())
        }
        candidates = [n for n in self.system.alive_node_ids() if n not in leaders]
        if not candidates:
            return
        self.system.kill_node(self.rng.choice(candidates))
        self.sim.schedule(ledger.REPLACE_AFTER, self.system.add_node)

    def _group_op(self) -> None:
        leader, self._op_cursor = self._next_leader(self._op_cursor)
        if leader is None or leader.successor is None:
            return
        if self.group_ops_started % 2 == 0:
            boundary = (leader.range.lo + (leader.range.size() * 7) // 8) % KEY_SPACE
            leader.host.start_repartition(leader, boundary)
        else:
            movers = sorted(m for m in leader.members if m != leader.paxos.replica_id)
            if len(leader.members) < 5 or not movers:
                return
            leader.host.start_migrate(leader, movers[0], leader.successor)
        self.group_ops_started += 1


def _start_load(shape: ledger.Shape, seed: int):
    """Build, start the closed loop and warm up: everything ``setup_s`` times."""
    t0 = time.perf_counter()
    deployment, skipped = build(shape, seed)
    workload = ClosedLoopWorkload(
        deployment.sim, deployment.clients, UniformKeys(shape.n_keys),
        read_fraction=shape.read_fraction, think_time=shape.think_time,
    )
    workload.start()
    deployment.sim.run_for(shape.warm_sim_s)
    return deployment, workload, skipped, time.perf_counter() - t0


class _GcClock:
    """``gc.callbacks`` hook summing the host time spent in collections."""

    def __init__(self) -> None:
        self.total = 0.0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.total += time.perf_counter() - self._t0


def _run_window(deployment, sim_s: float, profiler=None, tracer=None) -> dict:
    """Advance ``sim_s`` simulated seconds in three timed thirds."""
    sim = deployment.sim
    start = sim.now
    before = _counters(deployment)
    obs_before = _obs_snapshot(tracer) if tracer is not None else None
    slices = []
    gc_clock = _GcClock()
    gc.callbacks.append(gc_clock)
    if profiler is not None:
        profiler.enable()
    for i in range(1, 4):
        events, h0 = sim.events_processed, time.perf_counter()
        sim.run_until(start + sim_s * i / 3)
        slices.append((time.perf_counter() - h0, sim.events_processed - events))
    if profiler is not None:
        profiler.disable()
    gc.callbacks.remove(gc_clock)
    after = _counters(deployment)
    return {
        "start": start,
        "end": sim.now,
        "sim_s": sim.now - start,
        "host_s": sum(host for host, _ in slices),
        "gc_host_s": gc_clock.total,
        "slices": slices,
        "delta": {k: after[k] - before[k] for k in after},
        "obs": (obs_before, _obs_snapshot(tracer)) if tracer is not None else None,
    }


def run_pass(
    shape: ledger.Shape, seed: int, sim_s: float, fault_sim_s: float = 0.0, mode: str = "plain"
) -> dict:
    """One set-up, the gated window, the fault window if any, one drain.

    ``mode`` is ``plain`` (untraced), ``profile`` (cProfile around the
    run calls of the last window only) or ``obs`` (a ``Tracer``
    installed before the simulator is built; its counters are read over
    the last window).  Only ops invoked in a window count for it.
    """
    tracer = Tracer() if mode == "obs" else None
    profiler = cProfile.Profile() if mode == "profile" else None
    with tracing(tracer) if tracer is not None else nullcontext():
        deployment, workload, skipped, setup_s = _start_load(shape, seed)
        sim = deployment.sim
        # The profiler and the tracer's counters cover the last window only.
        schedule = None
        if fault_sim_s:
            windows = {"gate": _run_window(deployment, sim_s)}
            schedule = ChurnSchedule(deployment, seed, fault_sim_s)
            windows["fault"] = _run_window(deployment, fault_sim_s, profiler, tracer)
        else:
            windows = {"gate": _run_window(deployment, sim_s, profiler, tracer)}
        last = windows["fault" if fault_sim_s else "gate"]
        workload.stop()

        # Drain: every op invoked in a window gets op_timeout + 1 to
        # resolve.  Steady workloads stop as soon as all have; after
        # faults the whole drain runs so restarts and joins settle.
        all_records = workload.all_records()
        for window in windows.values():
            window["records"] = [
                r for r in all_records if window["start"] <= r.invoke_time < window["end"]
            ]
        pending = [r for w in windows.values() for r in w["records"] if r.response_time < 0]
        deadline = sim.now + deployment.clients[0].config.op_timeout + 1.0
        while sim.now < deadline and (pending or fault_sim_s):
            sim.run_for(0.25)
            pending = [r for r in pending if r.response_time < 0]

        t0 = time.perf_counter()
        span = (windows["gate"]["start"], last["end"])
        violations = len(check_history(all_records, window=span).violations)
        check_host_s = time.perf_counter() - t0
        audit = deployment.system.audit()

    result = {
        "setup_s": setup_s,
        **windows,
        "violations": violations,
        "audit": audit,
        "check_host_s": check_host_s,
        "skipped": skipped,
        "kills": schedule.kills if schedule else [],
        "group_ops_started": schedule.group_ops_started if schedule else 0,
    }
    ops = sum(1 for r in last["records"] if r.completed)
    if profiler is not None:
        result["profile"] = _profile_layers(profiler, ops)
    if tracer is not None:
        result["obs"] = _obs_layers(tracer, *last["obs"], (last["start"], last["end"]), ops)
    return result


# ---------------------------------------------------------------------------
# Source B: cProfile self time by layer
# ---------------------------------------------------------------------------
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_SIM_FILES = {
    "sim/loop.py": "sim.loop", "sim/events.py": "sim.loop",
    "sim/network.py": "sim.network", "sim/latency.py": "sim.network",
}


def layer_of(filename: str) -> str:
    """Layer a source file's self time is charged to."""
    if not filename.startswith(_REPRO_DIR):
        return "stdlib"
    rel = filename[len(_REPRO_DIR):].replace(os.sep, "/")
    if rel in _SIM_FILES:
        return _SIM_FILES[rel]
    package = rel.split("/", 1)[0]
    return package if package in ledger.PROFILE_LAYERS else "stdlib"


def _profile_layers(profiler: cProfile.Profile, ops: int) -> dict:
    self_s = dict.fromkeys(ledger.PROFILE_LAYERS, 0.0)
    calls = dict.fromkeys(ledger.PROFILE_LAYERS, 0)
    functions = []
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            layer, where = "stdlib", code
        else:
            layer = layer_of(code.co_filename)
            where = f"{os.path.basename(code.co_filename)}:{code.co_firstlineno}:{code.co_name}"
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        functions.append((entry.inlinetime, entry.callcount, layer, where))
    out = {}
    for layer in ledger.PROFILE_LAYERS:
        out[f"{layer}.self_us_per_op"] = 1e6 * ledger.ratio(self_s[layer], ops)
        out[f"{layer}.calls_per_op"] = ledger.ratio(calls[layer], ops)
    detail = {
        "total_self_s": sum(self_s.values()),
        "self_s_by_layer": self_s,
        "calls_by_layer": calls,
        "top_functions": [
            {"self_s": t, "calls": n, "layer": layer, "function": where}
            for t, n, layer, where in sorted(functions, reverse=True)[:40]
        ],
    }
    return {"layers": out, "detail": detail}


# ---------------------------------------------------------------------------
# Source C: repro.obs counters, histograms and spans
# ---------------------------------------------------------------------------
def _obs_snapshot(tracer: Tracer):
    metrics = tracer.metrics
    return dict(metrics.counters), {k: len(h.values) for k, h in metrics.histograms.items()}


def _obs_layers(tracer: Tracer, before, after, window, ops: int) -> dict:
    start, end = window
    pct, ratio = ledger.percentile, ledger.ratio

    def count(name: str) -> int:
        return after[0].get(name, 0) - before[0].get(name, 0)

    def hist_ms(name: str) -> list[float]:
        hist = tracer.metrics.histogram(name)
        if hist is None:
            return []
        lo, hi = before[1].get(name, 0), after[1].get(name, 0)
        return sorted(1e3 * v for v in hist.values[lo:hi])

    def span_ms(kind: str, outcome: str | None = None) -> list[float]:
        return sorted(
            1e3 * (s.end - s.start)
            for s in tracer.spans
            if s.kind == kind and s.end is not None and start <= s.start and s.end <= end
            and (outcome is None or s.attrs.get("outcome") == outcome)
        )

    def span_digest(kind: str) -> dict:
        ms = span_ms(kind)
        return {"count": len(ms), "p50_ms": pct(ms, 50), "p99_ms": pct(ms, 99)}

    slots = count("paxos.slots_chosen")
    quorum = span_ms("paxos.slot", "chosen")
    commit = hist_ms("group.commit_latency")
    txns = sum(count(f"txn.{o}") for o in ("committed", "aborted", "unknown", "error"))
    served = count("reads.leader") + count("reads.follower")
    detail = {
        "counters_in_window": {k: count(k) for k in sorted(after[0]) if count(k)},
        "spans_in_window": {k: span_digest(k) for k in sorted({s.kind for s in tracer.spans})},
    }
    layers = {
        "consensus.slots_per_op": ratio(slots, ops),
        "consensus.accept_rounds_per_slot": ratio(count("paxos.accept_rounds"), slots),
        "consensus.retransmissions_per_kop": 1e3 * ratio(count("paxos.retransmissions"), ops),
        "consensus.slot_quorum_ms_p50": pct(quorum, 50),
        "consensus.slot_quorum_ms_p99": pct(quorum, 99),
        "group.commit_ms_p50": pct(commit, 50),
        "group.commit_ms_p99": pct(commit, 99),
        "consensus.heartbeat_msg_share": ratio(
            count("net.msg.Heartbeat") + count("net.msg.HeartbeatAck"), count("net.sent")
        ),
        "consensus.elections": after[0].get("paxos.elections", 0),
        "consensus.elections_won_share": ratio(
            after[0].get("paxos.leader_elected", 0), after[0].get("paxos.elections", 0)
        ),
        "group.lease_read_share": ratio(count("group.lease_reads"), count("reads.leader")),
        "group.follower_read_share": ratio(count("reads.follower"), served),
        "group.read_bounce_share": ratio(
            count("reads.bounced"), count("reads.bounced") + count("reads.follower")
        ),
        "txn.committed": count("txn.committed"),
        "txn.abort_share": ratio(txns - count("txn.committed"), txns),
        "txn.op_ms_p50": pct(span_ms("txn.op"), 50),
        "txn.prepare_ms_p50": pct(span_ms("txn.prepare"), 50),
        "group.freeze_ms_p99": pct(span_ms("group.freeze"), 99),
        "storage.appends_per_fsync": ratio(count("wal.appends"), count("wal.fsyncs")),
        "net.rpc_failures_per_kop": 1e3 * ratio(count("client.rpc_failures"), count("client.ops")),
    }
    return {"layers": layers, "detail": detail}


# ---------------------------------------------------------------------------
# Source D: isolated layers
# ---------------------------------------------------------------------------
def _iso_loop(n: int) -> float:
    sim = Simulator(seed=1)
    left = [n]

    def tick() -> None:
        left[0] -= 1
        if left[0]:
            sim.schedule_fire(0.001, tick)

    sim.schedule_fire(0.0, tick)
    t0 = time.perf_counter()
    sim.run()
    return 1e9 * (time.perf_counter() - t0) / n


def _iso_network(n: int) -> float:
    sim = Simulator(seed=1)
    net = SimNetwork(sim, latency=DeploymentParams().latency)
    left = [n]

    def bounce(src: str, msg) -> None:
        left[0] -= 1
        if left[0]:
            net.send("b" if src == "a" else "a", src, msg)

    net.register("a", bounce)
    net.register("b", bounce)
    net.send("a", "b", "ping")
    t0 = time.perf_counter()
    sim.run()
    return 1e9 * (time.perf_counter() - t0) / n


def _iso_route(n: int, n_groups: int = 666) -> float:
    bounds = [(i * KEY_SPACE) // n_groups for i in range(n_groups)]
    table = RingTable(
        GroupInfo(
            gid=f"g{i}", range=KeyRange(bounds[i], bounds[(i + 1) % n_groups]),
            members=(f"n{i}",), leader_hint=f"n{i}",
        )
        for i in range(n_groups)
    )
    rng = random.Random(1)
    keys = [rng.randrange(KEY_SPACE) for _ in range(n)]
    lookup = table.lookup
    t0 = time.perf_counter()
    for key in keys:
        lookup(key)
    return 1e9 * (time.perf_counter() - t0) / n


def _iso_consensus(n: int) -> float:
    sim = Simulator(seed=1)
    net = SimNetwork(sim, latency=DeploymentParams().latency)
    hosts = build_cluster(sim, net, n=3)
    sim.run_for(0.5)
    issued = [0]

    def pump(_future=None) -> None:
        if issued[0] < n:
            issued[0] += 1
            hosts[0].propose(Command.app(issued[0])).add_callback(pump)

    for _ in range(8):
        pump()
    t0 = time.perf_counter()
    sim.run_for(120.0)
    host_s = time.perf_counter() - t0
    slots = len(hosts[0].applied)
    if slots < n:
        raise RuntimeError(f"isolated consensus bench chose {slots} of {n} slots")
    return 1e6 * host_s / slots


def isolated(scale: float = 1.0) -> dict[str, float]:
    """Median of five timings of each isolated layer."""
    benches = {
        "sim.loop.iso_ns_per_event": (_iso_loop, 150_000),
        "sim.network.iso_ns_per_msg": (_iso_network, 80_000),
        "dht.route.iso_ns_per_lookup": (_iso_route, 300_000),
        "consensus.iso_us_per_slot": (_iso_consensus, 1500),
    }
    return {
        name: statistics.median(fn(max(200, int(n * scale))) for _ in range(5))
        for name, (fn, n) in benches.items()
    }


# ---------------------------------------------------------------------------
# One workload, in this interpreter
# ---------------------------------------------------------------------------
def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" else rss / 1024.0


def run_untraced(shape: ledger.Shape, seed: int, factor: float) -> dict:
    """The untraced run: pooled passes, further set-ups, every metric of it.

    ``factor`` scales both windows.  ``host_peak_rss_mb`` is read after
    the measured passes and before the further set-ups.
    """
    passes = [
        run_pass(shape, seed + i, shape.measure_sim_s * factor, shape.fault_sim_s * factor)
        for i in range(shape.pooled_seeds)
    ]
    rss_mb = peak_rss_mb()
    setups = [p["setup_s"] for p in passes]
    result = ledger.summarize(passes, setups, rss_mb)
    if shape.pooled_seeds > 1:
        result["per_seed"] = [
            {"seed": seed + i, **{k: r[k] for k in ("e2e", "layers", "fingerprint")}}
            for i, r in enumerate(ledger.summarize([p], setups, rss_mb) for p in passes)
        ]
    passes.clear()
    # The deployment of each further set-up is dropped before the next.
    while len(setups) < shape.setups:
        gc.collect()
        setups.append(_start_load(shape, seed)[3])
    result["e2e"]["setup_s"] = statistics.median(setups)
    result["counts"]["setups"] = setups
    return result


def run_traced(shape: ledger.Shape, seed: int, factor: float) -> dict:
    """Per-layer metrics: untraced, profiled and obs passes of one window.

    All three run the same seed and windows, so their fingerprints must
    be equal; the untraced one supplies source A and the overhead
    baseline.  Steady workloads run ``TRACED_SHARE`` of the untraced
    window; a fault window runs whole, behind a shortened lead-in.
    """
    sim_s = shape.measure_sim_s * factor * ledger.TRACED_SHARE
    fault_sim_s = shape.fault_sim_s * factor
    last = "fault" if fault_sim_s else "gate"
    layers, detail, fingerprints, host_s = {}, {}, {}, {}
    for mode in ("plain", "profile", "obs"):
        gc.collect()
        p = run_pass(shape, seed, sim_s, fault_sim_s, mode)
        summary = ledger.summarize([p], [p["setup_s"]], 0.0)
        fingerprints[mode] = summary["fingerprint"]
        host_s[mode] = p[last]["host_s"]
        if mode == "plain":
            layers.update(summary["layers"])
            counts = summary["counts"]
        else:
            layers.update(p[mode]["layers"])
            detail[mode] = p[mode]["detail"]
    layers["profile.attributed_share"] = ledger.ratio(
        detail["profile"]["total_self_s"], host_s["profile"]
    )
    layers["profile.overhead_x"] = ledger.ratio(host_s["profile"], host_s["plain"])
    layers["obs.trace_overhead_x"] = ledger.ratio(host_s["obs"], host_s["plain"])
    layers.update(isolated(min(1.0, factor)))
    return {
        "layers": layers,
        "fingerprints": fingerprints,
        "counts": counts,
        "window_host_s": host_s,
        "detail": detail,
    }
