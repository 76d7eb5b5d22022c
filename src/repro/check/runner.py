"""Executes one fuzz plan deterministically and classifies the outcome.

``run_plan`` builds a fresh deployment from the plan's seed, plays the
scripted workload while the fault schedule runs and the invariant
monitor samples, heals, drains, and finally checks per-key
linearizability of the complete client history.  Everything the run
does is a pure function of the plan (plus the optional demo bug), so
the shrinker and ``--replay`` re-execute it byte-identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any

from repro.analysis.linearizability import check_history
from repro.check.demo import demo_bug
from repro.check.monitor import InvariantMonitor
from repro.check.plan import FuzzPlan
from repro.check.workload import ScriptedWorkload
from repro.dht.client import ClientConfig, ScatterClient
from repro.dht.system import ScatterSystem
from repro.faults.schedule import ScheduleRunner
from repro.faults.target import FaultTarget
from repro.harness.builders import EXPERIMENT_PAXOS, experiment_scatter_config
from repro.policies import ScatterPolicy
from repro.sim.latency import LogNormalLatency
from repro.sim.loop import Simulator, _stable_hash
from repro.sim.network import SimNetwork
from repro.storage.disk import StorageConfig

_HEX_ADDR = re.compile(r"0x[0-9a-fA-F]+")


def _sanitize(text: str) -> str:
    """Strip memory addresses so failure details are run-independent."""
    return _HEX_ADDR.sub("0x?", text)


@dataclass(frozen=True)
class FailureSummary:
    """What went wrong, in plan-reproducible terms."""

    kind: str  # "invariant" | "linearizability" | "exception"
    name: str  # invariant name / violation kind / exception type
    detail: str
    time: float

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "detail": self.detail, "time": self.time}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "FailureSummary":
        return FailureSummary(data["kind"], data["name"], data["detail"], data["time"])


@dataclass
class FuzzOutcome:
    plan: FuzzPlan
    failure: FailureSummary | None
    violations: list
    ops_total: int
    ops_completed: int
    events: int
    history_digest: int

    @property
    def failed(self) -> bool:
        return self.failure is not None


def _history_digest(records: list) -> int:
    parts = [
        f"{r.op}|{r.key}|{r.invoke_time:.9f}|{r.response_time:.9f}|{r.hops}|{r.attempts}"
        for r in records
    ]
    return _stable_hash(";".join(parts))


def run_plan(plan: FuzzPlan, bug: str | None = None) -> FuzzOutcome:
    with demo_bug(bug):
        sim = Simulator(seed=plan.sim_seed)
        net = SimNetwork(sim, latency=LogNormalLatency(0.004, 0.4))
        size = plan.group_size
        policy = ScatterPolicy(
            target_size=size,
            split_size=2 * size + 1,
            merge_size=max(1, size - 2),
            repair=plan.repair,
        )
        system = ScatterSystem.build(
            sim,
            net,
            n_nodes=plan.n_nodes,
            n_groups=plan.n_groups,
            config=experiment_scatter_config(
                paxos=replace(
                    EXPERIMENT_PAXOS,
                    batch_max=16 if plan.batching else 1,
                    pipeline_depth=plan.pipeline_depth,
                    follower_reads=plan.follower_reads,
                ),
                storage=StorageConfig() if plan.storage else None,
            ),
            policy=policy,
        )
        # Follower-read plans route Gets round-robin across members so the
        # scripted workload actually exercises the follower serve path.
        client_config = (
            ClientConfig(read_routing="round_robin") if plan.follower_reads else None
        )
        clients = [
            ScatterClient(
                f"c{i}",
                sim,
                net,
                seed_provider=system.alive_node_ids,
                config=client_config,
            )
            for i in range(plan.n_clients)
        ]
        target = FaultTarget.for_system(system)
        has_loss = any(e.kind == "node_loss" for e in plan.schedule)
        monitor = InvariantMonitor(
            sim,
            system,
            repair_floor=size if (plan.repair and has_loss) else None,
        )
        workload = ScriptedWorkload(sim, clients, plan.ops)
        schedule = ScheduleRunner(sim, system, target, plan.schedule)

        failure: FailureSummary | None = None
        sim.run_for(plan.warmup)
        monitor.start()
        workload.start()
        schedule.start()
        try:
            sim.run_for(plan.duration)
            schedule.stop()
            sim.run_for(plan.drain)
        except Exception as exc:  # a protocol assertion tripped mid-run
            failure = FailureSummary(
                kind="exception",
                name=type(exc).__name__,
                detail=_sanitize(str(exc)),
                time=round(sim.now, 9),
            )
            try:
                schedule.stop()
            except Exception:
                pass
        monitor.stop()

        records = workload.all_records()
        violations = list(monitor.violations)
        if failure is None and violations:
            first = violations[0]
            failure = FailureSummary(
                kind="invariant",
                name=first.invariant,
                detail=first.detail,
                time=first.time,
            )
        if failure is None:
            result = check_history(records)
            if not result.ok:
                first = result.violations[0]
                failure = FailureSummary(
                    kind="linearizability",
                    name=first.kind,
                    detail=f"key {first.key}: {_sanitize(first.detail)}",
                    time=round(first.time, 9),
                )

        return FuzzOutcome(
            plan=plan,
            failure=failure,
            violations=violations,
            ops_total=len(plan.ops),
            ops_completed=sum(1 for r in records if r.completed),
            events=sim.events_processed,
            history_digest=_history_digest(records),
        )
