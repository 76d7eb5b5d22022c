"""Experiments E1–E21 (see DESIGN.md for the index).

Every ``run_eNN`` returns an :class:`ExperimentResult` whose rows are
the series the corresponding figure/table in the paper plots.
``quick=True`` (the default, what tier-1 checks) runs a scaled-down
version; ``quick=False`` runs closer to paper scale and is what
EXPERIMENTS.md records.  :func:`run_experiment` is the one way to run
one by name; ``tests/test_experiments_smoke.py`` holds each one's claim.
"""

from __future__ import annotations

import math
import random
import resource
import time

from repro.analysis.liveness import GroupQuorumWatch, LivenessWatchdog
from repro.analysis.stats import mean, percentile
from repro.baseline.chord import ChordConfig
from repro.consensus.replica import PaxosConfig
from repro.dht.client import MAX_HOPS, ClientConfig, ScatterClient
from repro.faults import FaultTarget, ScheduleRunner, build_scenario, get_scenario
from repro.faults.nemesis import crash_storm, node_loss_storm
from repro.group.replica import GroupStatus
from repro.harness.builders import (
    DeploymentParams,
    build_chord_deployment,
    build_scatter_deployment,
    experiment_scatter_config,
)
from repro.harness.metrics import workload_metrics
from repro.harness.results import ExperimentResult
from repro.policies import ScatterPolicy
from repro.sim.latency import ConstantLatency, WanLatencyMatrix
from repro.storage.disk import StorageConfig
from repro.txn.classic import ClassicCoordinator, ClassicParticipant
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.workloads import ChurnProcess, UniformKeys, ZipfKeys, exponential_lifetime
from repro.workloads.chirp import ChirpWorkload
from repro.workloads.driver import ClosedLoopWorkload

# Policy used for churn experiments.  Group size is the resilience knob
# (E7): ~5 members lets a group absorb a death and repair (remove +
# replacement join) before a second death can cost it its majority, even
# at the paper's harshest median lifetime of ~100 s.
CHURN_POLICY_KWARGS = dict(target_size=5, split_size=11, merge_size=3)


def _churn_run(
    backend: str,
    median_lifetime: float | None,
    duration: float,
    params: DeploymentParams,
    read_fraction: float = 0.5,
    n_keys: int = 40,
) -> dict:
    """One deployment under churn + closed-loop workload; returns metrics."""
    if backend == "scatter":
        deployment = build_scatter_deployment(params, policy=ScatterPolicy(**CHURN_POLICY_KWARGS))
    else:
        deployment = build_chord_deployment(params)
    sim, system, clients = deployment.sim, deployment.system, deployment.clients
    workload = ClosedLoopWorkload(
        sim, clients, UniformKeys(n_keys), read_fraction=read_fraction, think_time=0.05
    )
    workload.start()
    sim.run_for(5.0)  # populate some keys before churn begins
    churn = None
    if median_lifetime is not None:
        churn = ChurnProcess(sim, system, exponential_lifetime(median_lifetime))
        churn.start()
    start = sim.now
    sim.run_for(duration)
    if churn is not None:
        churn.stop()
    workload.stop()
    sim.run_for(2.0)
    metrics = workload_metrics(workload.all_records(), window=(start, start + duration))
    metrics["departures"] = churn.departures if churn else 0
    return metrics


def _nemesis_run(
    backend: str,
    scenario: str,
    duration: float,
    params: DeploymentParams,
    read_fraction: float = 0.5,
    n_keys: int = 40,
    watchdog_window: float = 3.0,
    recovery_cap: float = 20.0,
) -> dict:
    """One deployment under a named nemesis scenario; returns metrics.

    Shared by E16, the CLI ``nemesis`` subcommand, and tests, so fault
    schedules are defined once in :mod:`repro.faults.scenarios`.
    """
    spec = get_scenario(scenario)
    if backend == "scatter":
        # Disk-fault scenarios need disks to act on; every other scenario
        # runs storage-off so E16 stays on the zero-perturbation path.
        config = experiment_scatter_config(storage=StorageConfig()) if spec.needs_storage else None
        policy = ScatterPolicy(**CHURN_POLICY_KWARGS, repair=spec.needs_repair)
        deployment = build_scatter_deployment(params, policy=policy, config=config)
    else:
        chord_config = ChordConfig(hardened=True) if spec.needs_repair else None
        deployment = build_chord_deployment(params, config=chord_config)
    sim, system, clients = deployment.sim, deployment.system, deployment.clients
    workload = ClosedLoopWorkload(
        sim, clients, UniformKeys(n_keys), read_fraction=read_fraction, think_time=0.05
    )
    workload.start()
    sim.run_for(5.0)  # populate keys and reach steady state before faults
    target = FaultTarget.for_system(system)
    schedule = build_scenario(scenario, sim, target, duration)
    # Permanent-loss scenarios also get a per-group quorum watch so the
    # run can distinguish dead groups (permanently below quorum, with a
    # first-below timestamp) from transient dips.  Gated on needs_repair
    # so legacy scenarios (E16's rows) keep a byte-identical event
    # stream.
    quorum_watch = None
    if backend == "scatter" and spec.needs_repair:
        quorum_watch = GroupQuorumWatch(sim, _group_quorum_probe(system))
    metrics = _fault_window(
        deployment, workload, target, schedule, duration,
        watchdog_window, recovery_cap, quorum_watch,
    )
    metrics["scenario"] = scenario
    return metrics


def _fault_window(
    deployment,
    workload: ClosedLoopWorkload,
    target: FaultTarget,
    schedule,
    duration: float,
    watchdog_window: float = 3.0,
    recovery_cap: float = 20.0,
    quorum_watch: GroupQuorumWatch | None = None,
) -> dict:
    """Apply ``schedule`` to a warmed-up ``workload``, then time recovery.

    Returns the workload metrics over the fault window plus the fault,
    stall and recovery counts.  Recovery time is measured from the final
    heal (the runner's stop at the end of the window) to the first
    client operation completing afterwards, capped at ``recovery_cap``
    seconds.  A ``quorum_watch`` runs alongside and adds its dead-group
    verdict.
    """
    sim = deployment.sim

    def completed_ops() -> int:
        return sum(1 for r in workload.all_records() if r.completed)

    faults = ScheduleRunner(sim, deployment.system, target, schedule)
    watchdog = LivenessWatchdog(sim, completed_ops, window=watchdog_window)
    start = sim.now
    watchdog.start()
    if quorum_watch is not None:
        quorum_watch.start()
    faults.start()
    sim.run_for(duration)
    faults.stop()  # heals every fault still active
    fault_end = sim.now
    before_recovery = completed_ops()
    recovery = 0.0
    while recovery < recovery_cap and completed_ops() == before_recovery:
        sim.run_for(0.25)
        recovery += 0.25
    watchdog.stop()
    workload.stop()
    sim.run_for(2.0)
    metrics = workload_metrics(workload.all_records(), window=(start, fault_end))
    metrics["fault_events"] = len(faults.applied)
    metrics["stalls"] = watchdog.stall_count
    metrics["max_stall_s"] = watchdog.max_stall
    metrics["recovery_s"] = recovery
    metrics["recovered"] = completed_ops() > before_recovery
    if quorum_watch is not None:
        quorum_watch.stop()
        dead = quorum_watch.dead_groups()
        metrics["dead_groups"] = len(dead)
        metrics["first_death_s"] = min(dead.values()) - start if dead else None
    return metrics


def _group_quorum_probe(system):
    """Probe for :class:`GroupQuorumWatch`: ``{gid: (voting, members)}``.

    Voting counts live, attending, non-amnesiac replicas (an amnesiac
    disk-wipe survivor attends but cannot vote); membership size is the
    largest roster any attending replica reports for the group.
    """

    def probe() -> dict[str, tuple[int, int]]:
        counts: dict[str, tuple[int, int]] = {}
        for name in sorted(system.nodes):
            node = system.nodes[name]
            if not node.alive:
                continue
            for gid, replica in node.groups.items():
                if replica.paxos.retired or replica.status is GroupStatus.RETIRED:
                    continue
                voting, members = counts.get(gid, (0, 0))
                if not replica.paxos.amnesiac:
                    voting += 1
                counts[gid] = (voting, max(members, len(replica.paxos.members)))
        return counts

    return probe


def _closed_loop_window(
    deployment, workload: ClosedLoopWorkload, duration: float, warm: float = 3.0
) -> tuple[dict, float, int, int]:
    """Warm ``workload`` up, measure ``duration`` sim-seconds, then drain 1 s.

    Returns ``(metrics, start, msgs, events)``: the workload metrics over
    the measured window, its start time, and the messages sent and
    simulator events processed inside it.
    """
    sim, net = deployment.sim, deployment.net
    workload.start()
    sim.run_for(warm)
    start = sim.now
    msgs_before, events_before = net.stats.sent, sim.events_processed
    sim.run_for(duration)
    msgs = net.stats.sent - msgs_before
    events = sim.events_processed - events_before
    workload.stop()
    sim.run_for(1.0)
    metrics = workload_metrics(workload.all_records(), window=(start, start + duration))
    return metrics, start, msgs, events


def _fast_paxos(**knobs) -> PaxosConfig:
    """Paxos with the fast timing E15, E17, E19 and E20 share (150 ms heartbeats)."""
    return PaxosConfig(
        heartbeat_interval=0.15, election_timeout=0.7, lease_duration=0.5,
        retry_interval=0.4, **knobs,
    )


def _lifetimes(quick: bool) -> list[float]:
    return [100.0, 300.0] if quick else [60.0, 100.0, 180.0, 300.0, 600.0, 1000.0]


def _churn_params(quick: bool, seed: int) -> DeploymentParams:
    if quick:
        return DeploymentParams(n_nodes=20, n_groups=4, n_clients=3, seed=seed)
    return DeploymentParams(n_nodes=60, n_groups=12, n_clients=6, seed=seed)


# ---------------------------------------------------------------------------
# E1: vanilla-DHT inconsistency under churn (motivation figure)
# ---------------------------------------------------------------------------
def run_e01(quick: bool = True, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E1",
        title="E1: inconsistent lookups in a Chord-style DHT vs churn",
        columns=["median_lifetime_s", "ops", "availability", "violations", "violation_pct"],
        notes="violations = linearizability breaches among completed reads",
    )
    duration = 60.0 if quick else 240.0
    for lifetime in _lifetimes(quick):
        metrics = _churn_run("chord", lifetime, duration, _churn_params(quick, seed))
        result.add(
            median_lifetime_s=lifetime,
            ops=metrics["ops"],
            availability=metrics["availability"],
            violations=metrics["violations"],
            violation_pct=100 * metrics["violation_fraction"],
        )
    return result


# ---------------------------------------------------------------------------
# E2: Scatter vs Chord consistency under churn
# ---------------------------------------------------------------------------
def run_e02(quick: bool = True, seed: int = 2) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E2",
        title="E2: linearizability violations, Scatter vs Chord, under churn",
        columns=["backend", "median_lifetime_s", "reads_checked", "violations", "violation_pct"],
        notes="Scatter must stay at zero across the sweep",
    )
    duration = 60.0 if quick else 240.0
    for backend in ("scatter", "chord"):
        for lifetime in _lifetimes(quick):
            metrics = _churn_run(backend, lifetime, duration, _churn_params(quick, seed))
            result.add(
                backend=backend,
                median_lifetime_s=lifetime,
                reads_checked=metrics["reads_checked"],
                violations=metrics["violations"],
                violation_pct=100 * metrics["violation_fraction"],
            )
    return result


# ---------------------------------------------------------------------------
# E3: availability under churn
# ---------------------------------------------------------------------------
def run_e03(quick: bool = True, seed: int = 3) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E3",
        title="E3: operation availability vs churn (fraction completing in time)",
        columns=["backend", "median_lifetime_s", "ops", "availability", "departures"],
    )
    duration = 60.0 if quick else 240.0
    lifetimes = [None] + _lifetimes(quick)
    for backend in ("scatter", "chord"):
        for lifetime in lifetimes:
            metrics = _churn_run(backend, lifetime, duration, _churn_params(quick, seed))
            result.add(
                backend=backend,
                median_lifetime_s=lifetime if lifetime is not None else "none",
                ops=metrics["ops"],
                availability=metrics["availability"],
                departures=metrics["departures"],
            )
    return result


# ---------------------------------------------------------------------------
# E4: operation latency vs churn (Scatter)
# ---------------------------------------------------------------------------
def run_e04(quick: bool = True, seed: int = 4) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E4",
        title="E4: Scatter client latency vs churn",
        columns=["median_lifetime_s", "get_p50_ms", "put_p50_ms", "p99_ms"],
    )
    duration = 60.0 if quick else 240.0
    for lifetime in [None] + _lifetimes(quick):
        metrics = _churn_run("scatter", lifetime, duration, _churn_params(quick, seed))
        result.add(
            median_lifetime_s=lifetime if lifetime is not None else "none",
            get_p50_ms=1000 * metrics["get_p50"],
            put_p50_ms=1000 * metrics["put_p50"],
            p99_ms=1000 * metrics["latency_p99"],
        )
    return result


# ---------------------------------------------------------------------------
# E5: group operation cost
# ---------------------------------------------------------------------------
def run_e05(quick: bool = True, seed: int = 5) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E5",
        title="E5: latency of group operations (split / merge / migrate / repartition / join)",
        columns=["operation", "samples", "mean_ms", "p50_ms", "p99_ms"],
        notes="time from initiation to transaction commit (join: to membership)",
    )
    repeats = 4 if quick else 12
    samples: dict[str, list[float]] = {
        "split": [], "merge": [], "migrate": [], "repartition": [], "join": []
    }
    manual = ScatterPolicy(target_size=4, split_size=999, merge_size=0)
    for rep in range(repeats):
        params = DeploymentParams(n_nodes=12, n_groups=2, n_clients=0, seed=seed * 100 + rep)
        deployment = build_scatter_deployment(params, policy=manual)
        sim, system = deployment.sim, deployment.system

        def timed_commit(fut, window=20.0):
            """Run until the op resolves; return commit latency or None."""
            t0 = sim.now
            stamp: dict[str, float] = {}
            fut.add_callback(lambda _f: stamp.setdefault("t", sim.now))
            sim.run_for(window)
            if fut.done and fut.exception is None and fut.result() == "committed":
                return stamp["t"] - t0
            return None

        # Split g0 (6 members) into two groups of 3.
        leader = system.leader_of("g0")
        latency = timed_commit(leader.host.start_split(leader))
        if latency is not None:
            samples["split"].append(latency)
        # Migrate one member between two groups.
        gids = sorted(system.active_groups())
        a = system.leader_of(gids[0])
        b = system.active_groups()[gids[1]]
        mover = [m for m in a.members if m != a.paxos.replica_id][0]
        latency = timed_commit(a.host.start_migrate(a, mover, b.info()))
        if latency is not None:
            samples["migrate"].append(latency)
        # Repartition a boundary by an eighth of a range.
        a = system.leader_of(sorted(system.active_groups())[0])
        if a.successor is not None:
            boundary = (a.range.lo + (a.range.size() * 7) // 8) % (1 << 32)
            latency = timed_commit(a.host.start_repartition(a, boundary))
            if latency is not None:
                samples["repartition"].append(latency)
        # Join a brand-new node (latency to voting membership).
        t0 = sim.now
        node = system.add_node()
        joined: dict[str, float] = {}

        def probe_join():
            for replica in node.groups.values():
                if node.node_id in replica.paxos.members:
                    joined.setdefault("t", sim.now)
                    return
            sim.schedule(0.1, probe_join)

        sim.schedule(0.1, probe_join)
        sim.run_for(20.0)
        if "t" in joined:
            samples["join"].append(joined["t"] - t0)
        # Merge two adjacent groups back together.
        a = system.leader_of(sorted(system.active_groups())[0])
        latency = timed_commit(a.host.start_merge(a))
        if latency is not None:
            samples["merge"].append(latency)
    for op in ("split", "merge", "migrate", "repartition", "join"):
        values = samples[op]
        result.add(
            operation=op,
            samples=len(values),
            mean_ms=1000 * mean(values) if values else float("nan"),
            p50_ms=1000 * percentile(values, 50) if values else float("nan"),
            p99_ms=1000 * percentile(values, 99) if values else float("nan"),
        )
    return result


# ---------------------------------------------------------------------------
# E6: throughput scaling with system size
# ---------------------------------------------------------------------------
def run_e06(quick: bool = True, seed: int = 6) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E6",
        title="E6: aggregate throughput vs system size (no churn)",
        columns=[
            "nodes", "groups", "clients", "ops_per_s", "p50_ms", "msgs_per_op",
            "sim_events",
        ],
        notes=(
            "closed-loop clients scale with nodes; simulated time; "
            "msgs_per_op counts all protocol traffic (heartbeats included); "
            "sim_events is the deterministic event count per measurement window"
        ),
    )
    # Full mode reaches 240 nodes / 80 groups — the regime the paper's
    # scalability claim is about, made tractable by the simulator
    # hot-path optimizations (DESIGN.md, "Simulator performance model").
    sizes = [12, 24, 48] if quick else [12, 24, 48, 96, 192, 240]
    duration = 30.0 if quick else 60.0
    total_events = 0
    total_wall = 0.0
    for n in sizes:
        wall_start = time.perf_counter()
        params = DeploymentParams(
            n_nodes=n, n_groups=n // 3, n_clients=max(2, n // 6), seed=seed
        )
        deployment = build_scatter_deployment(params)
        sim = deployment.sim
        workload = ClosedLoopWorkload(
            sim, deployment.clients, UniformKeys(8 * n), read_fraction=0.5, think_time=0.0
        )
        metrics, _start, msgs, events = _closed_loop_window(deployment, workload, duration)
        result.add(
            nodes=n,
            groups=n // 3,
            clients=params.n_clients,
            ops_per_s=metrics["completed"] / duration,
            p50_ms=1000 * metrics["latency_p50"],
            msgs_per_op=msgs / max(1, metrics["completed"]),
            sim_events=events,
        )
        total_events += sim.events_processed
        total_wall += time.perf_counter() - wall_start
    # Wall-clock speed goes in `perf`, never in rows: rows must stay
    # byte-identical for a fixed (configuration, seed).
    result.perf = {
        "events_per_s_wall": round(total_events / total_wall, 1) if total_wall else 0.0,
        "total_sim_events": total_events,
        "wall_s": round(total_wall, 2),
    }
    return result


# ---------------------------------------------------------------------------
# E7: group size vs probability of group failure under churn
# ---------------------------------------------------------------------------
def run_e07(quick: bool = True, seed: int = 7) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E7",
        title="E7: probability a group loses a majority before repair, vs group size",
        columns=["group_size", "median_lifetime_s", "p_analytic", "p_simulated"],
        notes="repair window = failure detection + replacement join (4 s here)",
    )
    repair_window = 4.0
    horizon = 2000.0 if quick else 10000.0
    trials = 300 if quick else 2000
    rng = random.Random(seed)
    for size in (1, 3, 5, 7):
        for lifetime in (100.0, 1000.0):
            # Analytic: majority of the k members die within one repair
            # window.  With exponential lifetimes, P(die in w) is
            # memoryless: p = 1 - exp(-ln2 * w / L).
            p_one = 1 - math.exp(-math.log(2) * repair_window / lifetime)
            need = size // 2 + 1
            p_group = sum(
                math.comb(size, j) * p_one**j * (1 - p_one) ** (size - j)
                for j in range(need, size + 1)
            )
            # Over the horizon the group survives ~horizon/w windows.
            windows = horizon / repair_window
            p_analytic = 1 - (1 - p_group) ** windows
            p_simulated = _simulate_group_failure(
                rng, size, lifetime, repair_window, horizon, trials
            )
            result.add(
                group_size=size,
                median_lifetime_s=lifetime,
                p_analytic=p_analytic,
                p_simulated=p_simulated,
            )
    return result


def _simulate_group_failure(
    rng: random.Random,
    size: int,
    median_lifetime: float,
    repair_window: float,
    horizon: float,
    trials: int,
) -> float:
    """Monte-Carlo: members die with exponential lifetimes; each death is
    repaired ``repair_window`` later unless a majority is already dead."""
    rate = math.log(2) / median_lifetime
    need = size // 2 + 1
    failures = 0
    for _ in range(trials):
        # Event-driven per group: track death times of current members.
        deaths = sorted(rng.expovariate(rate) for _ in range(size))
        now = 0.0
        dead = 0
        events = [(t, "death") for t in deaths]
        failed = False
        while events:
            events.sort()
            t, kind = events.pop(0)
            if t > horizon:
                break
            now = t
            if kind == "death":
                dead += 1
                if dead >= need:
                    failed = True
                    break
                events.append((now + repair_window, "repair"))
            else:
                if dead > 0:
                    dead -= 1
                    events.append((now + rng.expovariate(rate), "death"))
        if failed:
            failures += 1
    return failures / trials


# ---------------------------------------------------------------------------
# E8: load-balance policy (split-point choice)
# ---------------------------------------------------------------------------
def run_e08(quick: bool = True, seed: int = 8) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E8",
        title="E8: split balance and load spread, midpoint vs load-median split keys",
        columns=[
            "split_key_mode", "splits", "hot_half_share_pct", "groups_after",
            "load_cv_pct",
        ],
        notes=(
            "hot_half_share = parent load landing in the hotter half at the "
            "split (50% is ideal); load_cv = stddev/mean of per-group load "
            "after the splits under a Zipf(1.0) workload"
        ),
    )
    duration = 24.0 if quick else 60.0
    for mode in ("midpoint", "load_median"):
        policy = ScatterPolicy(
            target_size=3, split_size=999, merge_size=0, split_key_mode=mode
        )
        params = DeploymentParams(n_nodes=16, n_groups=4, n_clients=4, seed=seed)
        deployment = build_scatter_deployment(params, policy=policy)
        sim, system, clients = deployment.sim, deployment.system, deployment.clients
        keys = ZipfKeys(200, theta=1.0)
        workload = ClosedLoopWorkload(sim, clients, keys, read_fraction=0.7, think_time=0.01)
        workload.start()
        sim.run_for(duration / 2)  # accumulate per-key load statistics
        # Split every group using the mode's split key; record how evenly
        # the observed load divides at the chosen key.
        hot_shares = []
        splits = 0
        for gid in sorted(system.active_groups()):
            leader = system.leader_of(gid)
            if leader is None or len(leader.members) < 2:
                continue
            split_key = policy.choose_split_key(leader)
            if split_key == leader.range.lo or not leader.range.contains(split_key):
                continue
            left_arc, _right_arc = leader.range.split_at(split_key)
            total = sum(leader.load.values())
            if total == 0:
                continue
            left_load = sum(c for k, c in leader.load.items() if left_arc.contains(k))
            hot_shares.append(max(left_load, total - left_load) / total)
            # Sequential: simultaneous splits lock their common neighbor
            # participants and mutually abort.
            leader.host.start_split(leader, split_key=split_key)
            sim.run_for(6.0)
            splits += 1
        for g in system.active_groups().values():
            g.load.clear()
        sim.run_for(duration / 2)
        workload.stop()
        sim.run_for(1.0)
        loads = [sum(g.load.values()) for g in system.active_groups().values()]
        avg = mean(loads) if loads else float("nan")
        cv = (
            100 * math.sqrt(mean([(l - avg) ** 2 for l in loads])) / avg
            if loads and avg
            else float("nan")
        )
        result.add(
            split_key_mode=mode,
            splits=splits,
            hot_half_share_pct=100 * mean(hot_shares) if hot_shares else float("nan"),
            groups_after=len(loads),
            load_cv_pct=cv,
        )
    return result


# ---------------------------------------------------------------------------
# E9: latency-aware leader placement
# ---------------------------------------------------------------------------
def run_e09(quick: bool = True, seed: int = 9) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E9",
        title="E9: client op latency, random vs latency-aware leader placement (WAN)",
        columns=["leader_mode", "commit_p50_ms", "put_p50_ms", "put_p99_ms", "get_p50_ms"],
        notes=(
            "clustered WAN latency; commit = leader propose->apply, the "
            "policy's direct target; client latency additionally includes "
            "the client-to-leader hop"
        ),
    )
    duration = 40.0 if quick else 120.0
    for mode in ("static", "latency"):
        policy = ScatterPolicy(
            target_size=5, split_size=99, merge_size=0, leader_mode=mode
        )
        params = DeploymentParams(
            n_nodes=20,
            n_groups=4,
            n_clients=4,
            seed=seed,
            latency=WanLatencyMatrix(seed=seed, span=0.1, floor=0.003, sites=5),
        )
        deployment = build_scatter_deployment(
            params, policy=policy, client_config=ClientConfig(rpc_timeout=1.5, op_timeout=10.0)
        )
        sim, clients = deployment.sim, deployment.clients
        workload = ClosedLoopWorkload(
            sim, clients, UniformKeys(60), read_fraction=0.5, think_time=0.05
        )
        sim.run_for(10.0)  # give the latency policy time to move leaders
        workload.start()
        start = sim.now
        sim.run_for(duration)
        workload.stop()
        sim.run_for(2.0)
        metrics = workload_metrics(workload.all_records(), window=(start, start + duration))
        commit_latencies = [
            sample
            for node in deployment.system.nodes.values()
            for replica in node.groups.values()
            for sample in replica.commit_latencies
        ]
        result.add(
            leader_mode=mode,
            commit_p50_ms=1000 * percentile(commit_latencies, 50),
            put_p50_ms=1000 * metrics["put_p50"],
            put_p99_ms=1000 * percentile(
                [r.latency for r in workload.all_records() if r.completed and r.op == "put"], 99
            ),
            get_p50_ms=1000 * metrics["get_p50"],
        )
    return result


# ---------------------------------------------------------------------------
# E10: Chirp on Scatter vs the Chord baseline
# ---------------------------------------------------------------------------
def run_e10(quick: bool = True, seed: int = 10) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E10",
        title="E10: Chirp (Twitter clone) on Scatter vs Chord baseline",
        columns=[
            "backend", "fetches", "posts", "fetch_p50_ms", "fetch_p99_ms",
            "fetch_fail_pct", "fetches_per_s",
        ],
    )
    duration = 40.0 if quick else 120.0
    n_users = 12 if quick else 40
    for backend in ("scatter", "chord"):
        params = DeploymentParams(n_nodes=18, n_groups=6, n_clients=4, seed=seed)
        if backend == "scatter":
            deployment = build_scatter_deployment(params)
        else:
            deployment = build_chord_deployment(params)
        sim, clients = deployment.sim, deployment.clients
        workload = ChirpWorkload(
            sim, clients, n_users=n_users, follows_per_user=4, post_fraction=0.15,
            think_time=0.2,
        )
        setup = workload.setup()
        sim.run_for(20.0)
        workload.start()
        sim.run_for(duration)
        workload.stop()
        sim.run_for(2.0)
        stats = workload.combined_stats()
        attempts = stats.fetches + stats.failed_fetches
        result.add(
            backend=backend,
            fetches=stats.fetches,
            posts=stats.posts,
            fetch_p50_ms=1000 * percentile(stats.fetch_latencies, 50),
            fetch_p99_ms=1000 * percentile(stats.fetch_latencies, 99),
            fetch_fail_pct=100 * stats.failed_fetches / attempts if attempts else 0.0,
            fetches_per_s=stats.fetches / duration,
        )
    return result


# ---------------------------------------------------------------------------
# E11: leader leases ablation (local reads vs log reads)
# ---------------------------------------------------------------------------
def run_e11(quick: bool = True, seed: int = 11) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E11",
        title="E11: read latency with and without leader leases",
        columns=["lease_reads", "get_p50_ms", "get_p99_ms", "put_p50_ms", "ops_per_s"],
        notes="without leases every read replicates through the Paxos log",
    )
    duration = 30.0 if quick else 90.0
    for lease_reads in (True, False):
        paxos = PaxosConfig(
            heartbeat_interval=0.25,
            election_timeout=1.2,
            lease_duration=0.9,
            retry_interval=0.5,
            lease_reads=lease_reads,
        )
        params = DeploymentParams(n_nodes=12, n_groups=4, n_clients=4, seed=seed)
        deployment = build_scatter_deployment(
            params, config=experiment_scatter_config(paxos=paxos)
        )
        workload = ClosedLoopWorkload(
            deployment.sim, deployment.clients, UniformKeys(40), read_fraction=0.8,
            think_time=0.0,
        )
        metrics, start, _msgs, _events = _closed_loop_window(deployment, workload, duration)
        gets = [
            r.latency
            for r in workload.all_records()
            if r.completed and r.op == "get" and start <= r.invoke_time < start + duration
        ]
        result.add(
            lease_reads=lease_reads,
            get_p50_ms=1000 * percentile(gets, 50),
            get_p99_ms=1000 * percentile(gets, 99),
            put_p50_ms=1000 * metrics["put_p50"],
            ops_per_s=metrics["completed"] / duration,
        )
    return result


# ---------------------------------------------------------------------------
# E12: non-blocking transactions ablation
# ---------------------------------------------------------------------------
def run_e12(quick: bool = True, seed: int = 12) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E12",
        title="E12: coordinator death mid-transaction — blocked time",
        columns=["design", "trials", "resolved", "mean_block_s", "max_block_s"],
        notes="classic 2PC participants never resolve (capped at the 60 s observation window)",
    )
    trials = 3 if quick else 10
    observation = 60.0

    # --- Scatter: replicated coordinator ---
    block_times = []
    resolved = 0
    for t in range(trials):
        params = DeploymentParams(n_nodes=9, n_groups=3, n_clients=0, seed=seed * 10 + t)
        manual = ScatterPolicy(target_size=3, split_size=999, merge_size=0)
        deployment = build_scatter_deployment(params, policy=manual)
        sim, system = deployment.sim, deployment.system
        leader = system.leader_of("g1")
        coordinator_node = leader.paxos.replica_id
        leader.host.start_merge(leader)
        # Kill mid-prepare: participants hold locks, the outcome is
        # undecided, and only the coordinator group's continuity can
        # resolve it — exactly the case that blocks classic 2PC.
        sim.run_for(0.08)
        kill_time = sim.now
        system.kill_node(coordinator_node)
        release_time = None
        deadline = sim.now + observation
        while sim.now < deadline:
            sim.run_for(0.5)
            locked = [
                g for g in system.active_groups().values()
                if g.active_txn is not None or g.status is GroupStatus.FROZEN
            ]
            if not locked:
                release_time = sim.now
                break
        if release_time is not None:
            resolved += 1
            block_times.append(release_time - kill_time)
        else:
            block_times.append(observation)
    result.add(
        design="scatter (2PC over Paxos groups)",
        trials=trials,
        resolved=resolved,
        mean_block_s=mean(block_times),
        max_block_s=max(block_times),
    )

    # --- Classic 2PC: unreplicated coordinator ---
    block_times = []
    resolved = 0
    for t in range(trials):
        sim = Simulator(seed=seed * 100 + t)
        net = SimNetwork(sim, latency=ConstantLatency(0.005))
        coordinator = ClassicCoordinator("coord", sim, net)
        participants = [ClassicParticipant(f"p{i}", sim, net) for i in range(3)]
        coordinator.run_txn("t", [p.node_id for p in participants])
        sim.run_for(0.008)
        coordinator.crash()
        sim.run_for(observation)
        blocked = [p for p in participants if p.locked_txn is not None]
        if blocked:
            block_times.append(max(p.blocked_for for p in blocked))
        else:
            resolved += 1
            block_times.append(0.0)
    result.add(
        design="classic 2PC (single coordinator)",
        trials=trials,
        resolved=resolved,
        mean_block_s=mean(block_times),
        max_block_s=max(block_times) if block_times else 0.0,
    )
    return result



# ---------------------------------------------------------------------------
# E13 (bonus ablation): routing hops vs ring size, with and without gossip
# ---------------------------------------------------------------------------
def run_e13(quick: bool = True, seed: int = 13) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E13",
        title="E13: cold-client lookup hops vs number of groups (gossip ablation)",
        columns=["groups", "gossip", "mean_hops", "p99_hops", "mean_latency_ms", "capped"],
        notes=(
            "each lookup starts from a cold client at a random node; gossip "
            "fills node routing caches, standing in for finger maintenance; "
            "mean_hops, p99_hops and mean_latency_ms cover answered lookups "
            "only, capped counts the lookups left unanswered at the client's "
            "max_hops"
        ),
    )
    group_counts = [4, 16] if quick else [4, 8, 16, 32, 64]
    lookups = 40 if quick else 120
    for n_groups in group_counts:
        for gossip in (True, False):
            config = experiment_scatter_config(
                gossip_interval=3.0 if gossip else 1e9
            )
            params = DeploymentParams(
                n_nodes=3 * n_groups, n_groups=n_groups, n_clients=0, seed=seed
            )
            deployment = build_scatter_deployment(params, config=config)
            sim, net, system = deployment.sim, deployment.net, deployment.system
            sim.run_for(20.0)  # let gossip (if any) converge
            keys = UniformKeys(lookups * 4)
            rng = sim.rng("e13")
            hops = []
            latencies = []
            capped = 0
            for i in range(lookups):
                client = ScatterClient(
                    f"cold{n_groups}-{gossip}-{i}", sim, net,
                    seed_provider=system.alive_node_ids,
                )
                future = client.get(keys.sample(rng))
                sim.run_for(10.0)
                record = client.records[0]
                if record.completed:
                    hops.append(record.hops)
                    latencies.append(record.latency)
                elif record.hops >= MAX_HOPS:
                    capped += 1
            result.add(
                groups=n_groups,
                gossip=gossip,
                mean_hops=mean(hops),
                p99_hops=percentile(hops, 99),
                mean_latency_ms=1000 * mean(latencies),
                capped=capped,
            )
    return result



# ---------------------------------------------------------------------------
# E14 (bonus): latency-throughput curve under increasing offered load
# ---------------------------------------------------------------------------
def run_e14(quick: bool = True, seed: int = 14) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E14",
        title="E14: latency vs throughput as offered load grows (fixed 12-node system)",
        columns=["clients", "ops_per_s", "p50_ms", "p99_ms"],
        notes=(
            "closed-loop clients against 4 groups with a 5 ms per-op CPU "
            "service time: throughput plateaus near the leaders' aggregate "
            "capacity (~4 x 200 ops/s) while latency climbs — the classic "
            "saturation curve"
        ),
    )
    client_counts = [1, 4, 12, 24] if quick else [1, 2, 4, 8, 12, 16, 24, 32]
    duration = 12.0 if quick else 30.0
    for n_clients in client_counts:
        config = experiment_scatter_config()
        config.op_service_time = 0.005
        params = DeploymentParams(n_nodes=12, n_groups=4, n_clients=0, seed=seed)
        deployment = build_scatter_deployment(params, config=config)
        sim, net, system = deployment.sim, deployment.net, deployment.system
        clients = [
            ScatterClient(f"load{i}", sim, net, seed_provider=system.alive_node_ids)
            for i in range(n_clients)
        ]
        workload = ClosedLoopWorkload(
            sim, clients, UniformKeys(100), read_fraction=0.5, think_time=0.0
        )
        metrics, _start, _msgs, _events = _closed_loop_window(deployment, workload, duration)
        result.add(
            clients=n_clients,
            ops_per_s=metrics["completed"] / duration,
            p50_ms=1000 * metrics["latency_p50"],
            p99_ms=1000 * metrics["latency_p99"],
        )
    return result



# ---------------------------------------------------------------------------
# E15 (bonus): write batching ablation
# ---------------------------------------------------------------------------
def run_e15(quick: bool = True, seed: int = 15) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E15",
        title="E15: Paxos write batching under concurrent load",
        columns=["batch", "ops_per_s", "msgs_per_op", "put_p50_ms"],
        notes="write-heavy closed loop; batching coalesces concurrent puts into one slot",
    )
    duration = 20.0 if quick else 60.0
    n_clients = 12 if quick else 24
    for batch in (False, True):
        paxos = _fast_paxos(
            compact_threshold=400, batch_window=0.003, batch_max=16 if batch else 1
        )
        params = DeploymentParams(n_nodes=9, n_groups=3, n_clients=n_clients, seed=seed)
        deployment = build_scatter_deployment(
            params, config=experiment_scatter_config(paxos=paxos)
        )
        workload = ClosedLoopWorkload(
            deployment.sim, deployment.clients, UniformKeys(60), read_fraction=0.1,
            think_time=0.0,
        )
        metrics, _start, msgs, _events = _closed_loop_window(deployment, workload, duration)
        result.add(
            batch=batch,
            ops_per_s=metrics["completed"] / duration,
            msgs_per_op=msgs / max(1, metrics["completed"]),
            put_p50_ms=1000 * metrics["put_p50"],
        )
    return result


# ---------------------------------------------------------------------------
# E16: gray failures vs clean crashes (nemesis scenarios)
# ---------------------------------------------------------------------------
def run_e16(quick: bool = True, seed: int = 16) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E16",
        title="E16: availability and recovery under gray failures vs clean crashes",
        columns=[
            "backend", "scenario", "ops", "availability", "violations",
            "fault_events", "stalls", "max_stall_s", "recovery_s",
        ],
        notes=(
            "nemesis scenarios from repro.faults; recovery_s = heal to "
            "first completed op (20 s cap); gray links hurt more than "
            "clean crashes because failure detectors see silence, not "
            "slowness"
        ),
    )
    duration = 40.0 if quick else 120.0
    scenarios = ["clean_crash", "gray_failure", "asymmetric_partition"]
    if not quick:
        scenarios += ["dup_delivery", "chaos"]
    for backend in ("scatter", "chord"):
        for scenario in scenarios:
            metrics = _nemesis_run(backend, scenario, duration, _churn_params(quick, seed))
            result.add(
                backend=backend,
                scenario=scenario,
                ops=metrics["ops"],
                availability=metrics["availability"],
                violations=metrics["violations"],
                fault_events=metrics["fault_events"],
                stalls=metrics["stalls"],
                max_stall_s=metrics["max_stall_s"],
                recovery_s=metrics["recovery_s"],
            )
    return result


# ---------------------------------------------------------------------------
# E17: crash recovery vs snapshot threshold (durable storage model)
# ---------------------------------------------------------------------------
def run_e17(quick: bool = True, seed: int = 17) -> ExperimentResult:
    """Recovery cost and availability dip under a restart storm.

    Runs the same Scatter deployment with the durable-storage model on
    and a crash/restart storm, sweeping the snapshot (compaction)
    threshold.  0 disables compaction, so every recovery replays the
    full WAL; small thresholds keep replay short at the price of more
    snapshot writes.  The replay-length columns come straight from the
    per-region disk counters.
    """
    result = ExperimentResult(
        experiment="E17",
        title="E17: crash recovery cost vs snapshot threshold (durable storage)",
        columns=[
            "compact_threshold", "ops", "availability", "recoveries",
            "mean_replay", "max_replay", "snapshot_pct",
            "stalls", "max_stall_s", "recovery_s",
        ],
        notes=(
            "durable-storage model on; crash/restart storm for the whole "
            "window; mean/max_replay = WAL records replayed per recovery; "
            "snapshot_pct = recoveries that started from a snapshot; "
            "threshold 0 = compaction off (replay grows with uptime)"
        ),
    )
    duration = 30.0 if quick else 90.0
    thresholds = (0, 64, 256, 1024) if quick else (0, 32, 64, 128, 256, 512, 1024)
    for threshold in thresholds:
        paxos = _fast_paxos(compact_threshold=threshold)
        params = DeploymentParams(n_nodes=12, n_groups=4, n_clients=3, seed=seed)
        deployment = build_scatter_deployment(
            params,
            policy=ScatterPolicy(**CHURN_POLICY_KWARGS),
            config=experiment_scatter_config(paxos=paxos, storage=StorageConfig()),
        )
        sim, system, clients = deployment.sim, deployment.system, deployment.clients
        workload = ClosedLoopWorkload(
            sim, clients, UniformKeys(40), read_fraction=0.5, think_time=0.05
        )
        workload.start()
        sim.run_for(5.0)
        target = FaultTarget.for_system(system)
        storm = crash_storm(
            sim.rng("nemesis:crash-storm"), duration, target.node_ids(),
            interval=2.0, downtime=(0.5, 2.5), max_down=1,
        )
        metrics = _fault_window(deployment, workload, target, storm, duration)
        regions = [
            region
            for node in system.nodes.values()
            if node.disk is not None
            for region in node.disk.regions.values()
        ]
        recoveries = sum(r.recoveries for r in regions)
        replay_total = sum(r.replayed_total for r in regions)
        snapshot_recoveries = sum(r.snapshot_recoveries for r in regions)
        result.add(
            compact_threshold=threshold,
            ops=metrics["ops"],
            availability=metrics["availability"],
            recoveries=recoveries,
            mean_replay=replay_total / max(1, recoveries),
            max_replay=max((r.max_replayed for r in regions), default=0),
            snapshot_pct=100.0 * snapshot_recoveries / max(1, recoveries),
            stalls=metrics["stalls"],
            max_stall_s=metrics["max_stall_s"],
            recovery_s=metrics["recovery_s"],
        )
    return result


# ---------------------------------------------------------------------------
# E18: data survival under permanent node loss (self-healing vs baselines)
# ---------------------------------------------------------------------------
def _settle_future(sim: Simulator, future, cap: float = 12.0):
    """Run the sim until ``future`` resolves (or ``cap`` sim-seconds pass)."""
    deadline = sim.now + cap
    while not future.done and sim.now < deadline:
        sim.run_for(0.25)
    if not future.done or future.exception is not None:
        return None
    return future.result()


def run_e18(quick: bool = True, seed: int = 20) -> ExperimentResult:
    """Data survival when nodes leave *permanently* and never come back.

    The transient-churn experiments (E2–E4) restart departed nodes;
    here every loss is a crashed machine with a wiped disk, so the only
    thing standing between a key and oblivion is active
    re-replication.  A fresh node joins at the same rate nodes die —
    permanent churn with stable capacity, the regime an operator
    actually runs — so losing data means losing the *re-replication
    race*, not merely running out of machines.  Three variants face
    the same schedule: Scatter with the resilience policy's repair
    loop (pull-in migrates / merges through the Paxos log), the Chord
    baseline hardened per Zave's rectify/failover rules with
    Leslie-style replica maintenance, and the naive Chord baseline.
    Every key is written with a known value before the storm; after
    the losses stop and the survivors settle, each key is read back —
    a read that does not return the pre-storm value counts the key as
    lost.  Each row aggregates several seeds so one lucky (or cursed)
    victim sequence cannot carry the verdict.
    """
    result = ExperimentResult(
        experiment="E18",
        title="E18: data survival under permanent node loss (self-healing vs baselines)",
        columns=[
            "backend", "loss_interval_s", "seeds", "losses", "joins", "ops",
            "availability", "keys_lost", "keys_total", "dead_groups",
        ],
        notes=(
            "every loss is permanent (crash + disk wipe, no restart) and a "
            "fresh node joins at the same rate; keys_lost = keys whose "
            "post-storm read missed the pre-storm value, summed over the "
            "seeds in the row; dead_groups = scatter groups permanently "
            "below quorum (GroupQuorumWatch verdict; '-' for chord, which "
            "has no groups)"
        ),
    )
    duration = 40.0
    intervals = (3.0,) if quick else (4.0, 3.0, 2.0)
    n_seeds = 3 if quick else 5
    n_keys = 40
    keyspace = UniformKeys(n_keys)
    # The survival set lives under its own prefix so the availability
    # workload (which also writes) can never refresh or overwrite it —
    # a surviving key survived replication, not luck.
    survival = UniformKeys(n_keys, prefix="surv")
    for backend in ("scatter+repair", "chord+zave", "chord"):
        for interval in intervals:
            losses = joins = ops = ok_ops = lost = 0
            dead_groups: int | str = 0
            for trial_seed in range(seed, seed + n_seeds):
                params = DeploymentParams(
                    n_nodes=24, n_groups=5, n_clients=3, seed=trial_seed
                )
                if backend == "scatter+repair":
                    # Repair cadence tuned to the churn it faces — the
                    # same courtesy the Chord baseline gets for free
                    # (stabilize every 0.5 s, full replica scrub every
                    # 2 s).  The stock config detects death in 3 s and
                    # waits 6 s of suspicion before repairing; at one
                    # permanent loss every few seconds that chain loses
                    # the race by construction, so the operator-tuned
                    # deployment detects in 1.5 s and repairs after 2.5 s.
                    deployment = build_scatter_deployment(
                        params,
                        policy=ScatterPolicy(**CHURN_POLICY_KWARGS, repair=True),
                        config=experiment_scatter_config(
                            maintenance_interval=0.5,
                            dead_timeout=1.5,
                            repair_suspicion=2.5,
                            txn_cooldown=1.0,
                            gossip_interval=2.0,
                        ),
                    )
                else:
                    deployment = build_chord_deployment(
                        params, config=ChordConfig(hardened=(backend == "chord+zave"))
                    )
                sim, system, clients = (
                    deployment.sim, deployment.system, deployment.clients,
                )

                # Seed every survival key with a known value before any loss.
                for i in range(n_keys):
                    _settle_future(sim, clients[0].put(survival.key(i), f"v{i}"))

                workload = ClosedLoopWorkload(
                    sim, clients, keyspace, read_fraction=0.5, think_time=0.05
                )
                workload.start()
                sim.run_for(3.0)

                quorum_watch = None
                if backend == "scatter+repair":
                    quorum_watch = GroupQuorumWatch(sim, _group_quorum_probe(system))
                    quorum_watch.start()
                target = FaultTarget.for_system(system)
                storm = ScheduleRunner(sim, system, target, node_loss_storm(
                    sim.rng("nemesis:node-loss-storm"), duration, target.node_ids(),
                    interval=interval, max_losses=18, min_alive=8,
                ))
                start = sim.now
                storm.start()
                # Replacement capacity arrives at the loss rate, offset so
                # a join never lands on the same instant as a kill.
                storm_end = sim.now + duration
                trial_joins = 0

                def replenish():
                    nonlocal trial_joins
                    if sim.now < storm_end:
                        system.add_node()
                        trial_joins += 1
                        sim.schedule(interval, replenish)

                sim.schedule(interval * 1.5, replenish)
                sim.run_for(duration)
                storm.stop()
                fault_end = sim.now
                sim.run_for(20.0)  # let repair / stabilization settle
                workload.stop()
                if quorum_watch is not None:
                    quorum_watch.stop()

                for i in range(n_keys):
                    res = _settle_future(sim, clients[1].get(survival.key(i)))
                    if res is None or not res.ok or res.value != f"v{i}":
                        lost += 1
                metrics = workload_metrics(
                    workload.all_records(), window=(start, fault_end)
                )
                losses += len(target.lost_ids())
                joins += trial_joins
                ops += metrics["ops"]
                ok_ops += round(metrics["availability"] * metrics["ops"])
                if quorum_watch is not None:
                    dead_groups += len(quorum_watch.dead_groups())
                else:
                    dead_groups = "-"
            result.add(
                backend=backend,
                loss_interval_s=interval,
                seeds=n_seeds,
                losses=losses,
                joins=joins,
                ops=ops,
                availability=ok_ops / max(1, ops),
                keys_lost=lost,
                keys_total=n_keys * n_seeds,
                dead_groups=dead_groups,
            )
    return result


# ---------------------------------------------------------------------------
# E19: write-path saturation — batching x pipelining
# ---------------------------------------------------------------------------
def _total_fsyncs(system) -> int:
    """Sum of completed fsyncs across every region of every node disk."""
    total = 0
    for node in system.nodes.values():
        disk = getattr(node, "disk", None)
        if disk is not None:
            total += sum(region.fsyncs for region in disk.regions.values())
    return total


def run_e19(quick: bool = True, seed: int = 19) -> ExperimentResult:
    """Saturation sweep of the full write-path throughput stack.

    The cost model makes per-message and per-fsync constants the
    bottleneck (msg_service_time on the CPU queue, fsync_latency on the
    disk), which is exactly what slot batching and pipelining
    amortize; the disk runs one fsync at a time in every cell, so each
    fsync covers whatever was appended during the one before it.
    Every cell runs the linearizability checker; the throughput win
    must come at an unchanged consistency bar.
    """
    result = ExperimentResult(
        experiment="E19",
        title="E19: write-path saturation — batch size x pipeline depth",
        columns=[
            "batch", "pipe", "ops_per_s", "p50_ms", "p99_ms",
            "p999_ms", "msgs_per_op", "fsyncs_per_op", "violations",
        ],
        notes=(
            "write-heavy closed loop (10% reads) against 3 groups with "
            "1 ms CPU per group message and 2 ms fsyncs, one fsync at a "
            "time per node disk: batch=N packs N puts into one slot "
            "(0 = off, the default), pipe=D keeps D slots in flight "
            "(1 = stop-and-wait, 8 = the default); an fsync covers what "
            "was appended during the one before it"
        ),
    )
    # (batch_max, pipeline_depth); batch 0 = batching off.
    cells = [
        (0, 8),   # defaults
        (16, 8),  # full stack: batching on the default pipe
        (0, 1),   # stop-and-wait
        (16, 1),  # batching only, stop-and-wait
    ]
    if not quick:
        cells += [(4, 8), (16, 4), (16, 16)]
    duration = 12.0 if quick else 30.0
    n_clients = 64
    for batch_max, pipe in cells:
        paxos = _fast_paxos(
            compact_threshold=400, batch_window=0.003, batch_max=max(batch_max, 1),
            pipeline_depth=pipe,
        )
        config = experiment_scatter_config(paxos=paxos, storage=StorageConfig())
        config.op_service_time = 0.0002
        config.msg_service_time = 0.001
        params = DeploymentParams(n_nodes=9, n_groups=3, n_clients=n_clients, seed=seed)
        deployment = build_scatter_deployment(params, config=config)
        sim, net, system = deployment.sim, deployment.net, deployment.system
        workload = ClosedLoopWorkload(
            sim, deployment.clients, UniformKeys(60), read_fraction=0.1, think_time=0.0
        )
        workload.start()
        sim.run_for(3.0)
        start = sim.now
        msgs_before = net.stats.sent
        fsyncs_before = _total_fsyncs(system)
        sim.run_for(duration)
        msgs = net.stats.sent - msgs_before
        fsyncs = _total_fsyncs(system) - fsyncs_before
        workload.stop()
        sim.run_for(1.0)
        metrics = workload_metrics(workload.all_records(), window=(start, start + duration))
        completed = max(1, metrics["completed"])
        result.add(
            batch=batch_max,
            pipe=pipe,
            ops_per_s=metrics["completed"] / duration,
            p50_ms=1000 * metrics["latency_p50"],
            p99_ms=1000 * metrics["latency_p99"],
            p999_ms=1000 * metrics["latency_p999"],
            msgs_per_op=msgs / completed,
            fsyncs_per_op=fsyncs / completed,
            violations=metrics["violations"],
        )
    return result


def run_e20(quick: bool = True, seed: int = 20) -> ExperimentResult:
    """Read scale-out: follower reads vs leader-only, by replica count.

    One group whose size is the swept variable, a read-heavy closed
    loop, and a per-operation CPU cost at the serving node: leader-only
    reads saturate one CPU no matter how many replicas the group has,
    while follower reads (round-robin routing) spread Gets across all
    of them.  Every cell runs the linearizability checker — the scaling
    must come at an unchanged consistency bar.
    """
    result = ExperimentResult(
        experiment="E20",
        title="E20: read throughput vs replica count — follower reads vs leader-only",
        columns=[
            "replicas", "follower_reads", "ops_per_s", "reads_per_s",
            "read_x", "p50_ms", "p99_ms", "violations",
        ],
        notes=(
            "single group, 90% reads, closed loop, 2 ms CPU per op at the "
            "serving node: leader-only Gets queue on one CPU; with "
            "follower_reads on and round_robin routing they spread across "
            "all replicas.  read_x is read throughput relative to the "
            "leader-only cell at the same replica count (writes still "
            "serialize through the leader either way)"
        ),
    )
    replica_counts = [1, 3, 5] if quick else [1, 3, 5, 7]
    duration = 8.0 if quick else 20.0
    n_clients = 24 if quick else 48
    baseline_reads: dict[int, float] = {}
    for replicas in replica_counts:
        for follower_reads in (False, True):
            paxos = _fast_paxos(compact_threshold=400, follower_reads=follower_reads)
            config = experiment_scatter_config(paxos=paxos)
            config.op_service_time = 0.002
            policy = ScatterPolicy(
                target_size=replicas,
                split_size=2 * replicas + 1,
                merge_size=max(1, replicas - 2),
            )
            params = DeploymentParams(
                n_nodes=replicas, n_groups=1, n_clients=n_clients, seed=seed
            )
            deployment = build_scatter_deployment(
                params,
                policy=policy,
                config=config,
                client_config=ClientConfig(
                    read_routing="round_robin" if follower_reads else "leader"
                ),
            )
            workload = ClosedLoopWorkload(
                deployment.sim, deployment.clients, UniformKeys(40), read_fraction=0.9,
                think_time=0.0,
            )
            metrics, start, _msgs, _events = _closed_loop_window(deployment, workload, duration)
            reads_per_s = (
                sum(
                    1
                    for r in workload.all_records()
                    if r.op == "get" and r.completed and start <= r.response_time <= start + duration
                )
                / duration
            )
            if not follower_reads:
                baseline_reads[replicas] = max(reads_per_s, 1e-9)
            result.add(
                replicas=replicas,
                follower_reads=follower_reads,
                ops_per_s=metrics["completed"] / duration,
                reads_per_s=reads_per_s,
                read_x=reads_per_s / baseline_reads[replicas],
                p50_ms=1000 * metrics["latency_p50"],
                p99_ms=1000 * metrics["latency_p99"],
                violations=metrics["violations"],
            )
    return result


# ---------------------------------------------------------------------------
# E21: large-ring scale-out (thousands of nodes in one simulated deployment)
# ---------------------------------------------------------------------------
def run_e21(quick: bool = True, seed: int = 21) -> ExperimentResult:
    """Throughput and routing quality as the ring grows to paper scale.

    E6 stops at 240 nodes; this experiment rides the simulator's
    constant-cost event path (direct-dispatch delivery, message-entry
    pooling) and the clients' precomputed bisect routing tables
    (:class:`~repro.dht.route.RingTable`) to thousands of nodes in a
    single deployment — the regime Scatter's scalability story is
    actually about.  Client caches are sized to hold the whole ring, so a warm
    client resolves any key in O(log groups) locally and one hop
    remotely; ``hops_per_op`` staying ~1 across the sweep is the
    routing-scalability claim, flat ``p50`` is the latency claim, and
    near-linear ``ops_per_s`` (client count grows with the ring) is the
    throughput claim.
    """
    result = ExperimentResult(
        experiment="E21",
        title="E21: large-ring scale-out — throughput and routing at thousands of nodes",
        columns=[
            "nodes", "groups", "clients", "ops_per_s", "p50_ms",
            "hops_per_op", "msgs_per_op", "sim_events",
        ],
        notes=(
            "whole-ring client caches with precomputed routing tables; "
            "closed-loop clients scale with nodes; hops_per_op ~ 1 means "
            "routing stays O(1) network hops as the ring grows; sim_events "
            "is the deterministic event count per measurement window"
        ),
    )
    sizes = [120, 240] if quick else [500, 1000, 2000, 5000]
    duration = 6.0 if quick else 30.0
    total_events = 0
    total_wall = 0.0
    for n in sizes:
        wall_start = time.perf_counter()
        n_groups = n // 3
        params = DeploymentParams(
            n_nodes=n, n_groups=n_groups, n_clients=max(2, n // 50), seed=seed
        )
        deployment = build_scatter_deployment(
            params,
            client_config=ClientConfig(cache_size=n_groups + 16),
        )
        sim = deployment.sim
        workload = ClosedLoopWorkload(
            sim, deployment.clients, UniformKeys(8 * n), read_fraction=0.9, think_time=0.0
        )
        # A 2 s warm-up fills the client caches before measuring.
        metrics, start, msgs, events = _closed_loop_window(
            deployment, workload, duration, warm=2.0
        )
        hops = [
            r.hops
            for r in workload.all_records()
            if r.completed and start <= r.invoke_time < start + duration
        ]
        result.add(
            nodes=n,
            groups=n_groups,
            clients=params.n_clients,
            ops_per_s=metrics["completed"] / duration,
            p50_ms=1000 * metrics["latency_p50"],
            hops_per_op=mean(hops) if hops else float("nan"),
            msgs_per_op=msgs / max(1, metrics["completed"]),
            sim_events=events,
        )
        total_events += sim.events_processed
        total_wall += time.perf_counter() - wall_start
    result.perf = {
        "events_per_s_wall": round(total_events / total_wall, 1) if total_wall else 0.0,
        "total_sim_events": total_events,
        "wall_s": round(total_wall, 2),
        # The process's high-water mark: E21's own when it runs alone
        # (scripts/run_experiments.py --full E21).  Linux reports KiB.
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    return result


# name -> (run function, the title `repro list` prints).  Tests
# monkeypatch entries; everything else goes through run_experiment.
ALL_EXPERIMENTS = {
    "E1": (run_e01, "inconsistent lookups in a Chord-style DHT vs churn (motivation)"),
    "E2": (run_e02, "linearizability violations, Scatter vs Chord, under churn (headline)"),
    "E3": (run_e03, "operation availability vs churn"),
    "E4": (run_e04, "Scatter client latency vs churn"),
    "E5": (run_e05, "latency of group operations (split/merge/migrate/repartition/join)"),
    "E6": (run_e06, "aggregate throughput vs system size"),
    "E7": (run_e07, "group failure probability vs group size (resilience knob)"),
    "E8": (run_e08, "load balance: midpoint vs load-median split keys"),
    "E9": (run_e09, "latency policy: random vs latency-aware leader placement"),
    "E10": (run_e10, "Chirp (Twitter clone) on Scatter vs Chord"),
    "E11": (run_e11, "ablation: leader leases vs log reads"),
    "E12": (run_e12, "ablation: non-blocking 2PC vs classic 2PC"),
    "E13": (run_e13, "bonus: cold lookup hops vs ring size (gossip ablation)"),
    "E14": (run_e14, "bonus: latency-throughput saturation curve"),
    "E15": (run_e15, "bonus: Paxos write batching ablation"),
    "E16": (run_e16, "availability and recovery under gray failures vs clean crashes"),
    "E17": (run_e17, "crash recovery cost vs snapshot threshold (durable storage)"),
    "E18": (run_e18, "data survival under permanent node loss (self-healing vs baselines)"),
    "E19": (run_e19, "write-path saturation: batching x pipelining on a group-committed WAL"),
    "E20": (run_e20, "read scale-out: follower reads vs leader-only, by replica count"),
    "E21": (run_e21, "large-ring scale-out: throughput and routing at thousands of nodes"),
}


def experiment_names() -> list[str]:
    """Registered experiment names in numeric order (E1, E2, ..., E21)."""
    return sorted(ALL_EXPERIMENTS, key=lambda k: int(k[1:]))


def experiment_key(name: str) -> str:
    """Normalize ``e05`` / ``E5`` / ``5`` to the registry key ``E5``.

    Raises one :class:`KeyError` whose message lists the known names.
    """
    digits = name.strip().upper().removeprefix("E")
    key = f"E{int(digits)}" if digits.isdigit() else name
    if key not in ALL_EXPERIMENTS:
        known = ", ".join(experiment_names())
        raise KeyError(f"unknown experiment {name!r}; known: {known}")
    return key


def run_experiment(
    name: str, quick: bool = True, seed: int | None = None
) -> ExperimentResult:
    """Run one registered experiment by name: the one entry point.

    ``seed=None`` keeps the experiment's own default seed.  Stamps
    ``perf["wall_s"]`` unless the experiment reports its own (E6, E21);
    ``perf`` never enters a table comparison (see harness.results), so
    the stamp cannot perturb a determinism check.
    """
    run, _title = ALL_EXPERIMENTS[experiment_key(name)]
    started = time.perf_counter()
    result = run(quick=quick) if seed is None else run(quick=quick, seed=seed)
    result.perf.setdefault("wall_s", round(time.perf_counter() - started, 2))
    return result


def run_traced(name: str, tracer=None, quick: bool = True, seed: int | None = None):
    """Run one experiment with ``repro.obs`` tracing enabled.

    Installs ``tracer`` (a fresh one when None) ambiently for the
    duration of the run, so every simulator the experiment builds binds
    to it, then returns ``(result, tracer)``.  Any experiment can opt
    in this way — the experiment functions themselves need no tracing
    parameter.  Tracing never perturbs results: the returned result is
    identical to an untraced run with the same arguments.
    """
    from repro.obs import Tracer, tracing

    if tracer is None:
        tracer = Tracer()
    with tracing(tracer):
        result = run_experiment(name, quick=quick, seed=seed)
    return result, tracer
