"""Fuzz plans: the complete, serializable input of one fuzz iteration.

A plan pins everything a run depends on — deployment shape, simulator
seed, a *scripted* client workload, and an explicit fault schedule — so
that (a) the same plan always reproduces the same run byte-for-byte,
(b) the shrinker can delete schedule entries / ops and re-run, and
(c) a failing plan can be written to a ``repro-<seed>.json`` file and
replayed later with ``python -m repro fuzz --replay``.

Randomness is confined to :func:`sample_plan`: once sampled, a plan is
pure data and its execution draws no fuzzer-level random numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any

from repro.consensus.replica import PaxosConfig
from repro.faults.schedule import FAULT_KINDS, FaultEntry
from repro.sim.loop import _stable_hash

PLAN_FORMAT = "repro.check/1"

# At most this many amnesia-inducing faults (disk_corrupt / disk_loss)
# per plan: each one turns a voter into a learner for a while, and two
# in one small group can legitimately stall it for the whole window.
MAX_AMNESIA_FAULTS = 1

# At most this many permanent node losses per plan: losing two voters of
# a three-member group kills its quorum for good, which is a legitimate
# outcome but not one repair can be expected to fix.
MAX_NODE_LOSS_FAULTS = 1

# Extra post-schedule drain for plans that contain a node_loss entry:
# repair needs quiescent time to detect the loss and run a migrate or
# merge before the replication-floor invariant is evaluated.
NODE_LOSS_EXTRA_DRAIN = 6.0


@dataclass(frozen=True)
class OpEntry:
    """One scripted client operation.

    ``op_id`` is assigned at sampling time and survives shrinking, so a
    put's value (``c<client>#<op_id>``) is stable no matter which other
    ops the shrinker deletes around it.
    """

    op_id: int
    client: int
    kind: str  # "get" | "put"
    key: int
    think: float  # pause before issuing, seconds


@dataclass(frozen=True)
class FuzzPlan:
    """Everything one fuzz iteration needs, as pure data."""

    master_seed: int
    iteration: int
    sim_seed: int
    n_groups: int
    group_size: int
    n_clients: int
    warmup: float
    duration: float
    drain: float
    schedule: tuple[FaultEntry, ...]
    ops: tuple[OpEntry, ...]
    # Run with the durable-storage model (WAL + snapshots + real crash
    # recovery).  Sampled plans enable it; old repro files without the
    # field deserialize to False and replay exactly as recorded.
    storage: bool = False
    # Run with the self-healing repair policy enabled (leaders detect
    # permanently lost members and migrate/merge to restore replication).
    # Sampled plans enable it; old repro files deserialize to False and
    # replay exactly as recorded.
    repair: bool = False
    # Write-path throughput knobs (slot batching, pipeline flow
    # control).  Sampled plans randomize them so acceptor-durability
    # polices batched acks under disk faults and power failures; old
    # repro files deserialize to the shipped defaults.
    batching: bool = False
    pipeline_depth: int = PaxosConfig.pipeline_depth
    # Scale-out read path: linearizable follower reads plus round-robin
    # client read routing.  Sampled plans flip it on about half the
    # time so the fuzzer polices the grant/quorum-expansion protocol
    # under every fault kind; old repro files deserialize to False and
    # replay exactly as recorded.
    follower_reads: bool = False

    @property
    def n_nodes(self) -> int:
        return self.n_groups * self.group_size

    def with_schedule(self, schedule) -> "FuzzPlan":
        return replace(self, schedule=tuple(schedule))

    def with_ops(self, ops) -> "FuzzPlan":
        return replace(self, ops=tuple(ops))


def iteration_seed(master_seed: int, iteration: int) -> int:
    """Derive iteration ``i``'s seed from the master seed (stable hash)."""
    return _stable_hash(f"fuzz:{master_seed}:{iteration}") & 0x7FFFFFFF


def _r(value: float) -> float:
    return round(value, 6)


def _sample_fault(rng: random.Random, node_names: list[str], duration: float) -> FaultEntry:
    time = _r(rng.uniform(0.3, max(0.4, duration - 1.0)))
    kind = rng.choices(
        FAULT_KINDS,
        weights=(24, 16, 10, 10, 7, 7, 12, 5, 5, 2, 2, 4),
    )[0]
    if kind == "crash":
        return FaultEntry(
            time,
            kind,
            _r(rng.uniform(0.5, 3.0)),
            {"node": rng.choice(node_names)},
        )
    if kind == "partition":
        k = rng.randint(1, max(1, len(node_names) // 2))
        side = sorted(rng.sample(node_names, k))
        return FaultEntry(time, kind, _r(rng.uniform(0.8, 2.5)), {"side": side})
    if kind == "oneway":
        return FaultEntry(
            time,
            kind,
            _r(rng.uniform(0.8, 2.0)),
            {"node": rng.choice(node_names), "mode": rng.choice(["inbound", "outbound"])},
        )
    if kind == "gray":
        return FaultEntry(
            time,
            kind,
            _r(rng.uniform(1.0, 3.0)),
            {"node": rng.choice(node_names), "factor": _r(rng.uniform(8.0, 30.0))},
        )
    if kind == "drop":
        return FaultEntry(
            time, kind, _r(rng.uniform(0.5, 1.5)), {"prob": _r(rng.uniform(0.15, 0.45))}
        )
    if kind == "dup":
        return FaultEntry(
            time, kind, _r(rng.uniform(0.8, 2.0)), {"prob": _r(rng.uniform(0.15, 0.4))}
        )
    if kind == "disk_io":
        return FaultEntry(
            time,
            kind,
            _r(rng.uniform(0.5, 2.0)),
            {"node": rng.choice(node_names)},
        )
    if kind == "disk_slow":
        return FaultEntry(
            time,
            kind,
            _r(rng.uniform(1.0, 3.0)),
            {"node": rng.choice(node_names), "factor": _r(rng.uniform(10.0, 100.0))},
        )
    if kind == "disk_corrupt":
        # Crash, corrupt a tail of the durable WAL, restart after
        # `duration`: recovery detects the bad checksum and takes the
        # amnesia path.
        return FaultEntry(
            time,
            kind,
            _r(rng.uniform(0.5, 2.0)),
            {"node": rng.choice(node_names), "records": rng.randint(1, 8)},
        )
    if kind == "disk_loss":
        return FaultEntry(
            time,
            kind,
            _r(rng.uniform(0.5, 2.0)),
            {"node": rng.choice(node_names)},
        )
    if kind == "node_loss":
        # Permanent: fire early so repair has the rest of the window plus
        # the drain to detect the loss and restore replication.
        return FaultEntry(
            _r(rng.uniform(0.3, 3.0)),
            kind,
            0.0,
            {"node": rng.choice(node_names)},
        )
    # group_op: force a split or merge on whichever group is at `index`
    # (mod the live group count) when the entry fires.
    return FaultEntry(
        time,
        "group_op",
        0.0,
        {"op": rng.choice(["split", "merge"]), "index": rng.randrange(8)},
    )


def sample_plan(master_seed: int, iteration: int) -> FuzzPlan:
    """Sample iteration ``i``'s plan — deployment, workload, faults."""
    seed = iteration_seed(master_seed, iteration)
    rng = random.Random(seed)

    n_groups = rng.randint(2, 4)
    group_size = rng.choice([3, 3, 5])
    n_clients = rng.randint(2, 3)
    duration = _r(rng.uniform(8.0, 14.0))
    node_names = [f"s{i}" for i in range(n_groups * group_size)]

    n_faults = rng.randint(3, 10)
    sampled = [_sample_fault(rng, node_names, duration) for _ in range(n_faults)]
    # Cap amnesia-inducing faults: demote extras to plain crashes so the
    # plan keeps an entry (and its timing) without wiping a second voter.
    # node_loss is capped the same way: extras become transient crashes.
    amnesia_kinds = ("disk_corrupt", "disk_loss")
    seen_amnesia = 0
    seen_loss = 0
    capped = []
    for entry in sampled:
        if entry.kind in amnesia_kinds:
            seen_amnesia += 1
            if seen_amnesia > MAX_AMNESIA_FAULTS:
                entry = FaultEntry(
                    entry.time, "crash", entry.duration, {"node": entry.params["node"]}
                )
        elif entry.kind == "node_loss":
            seen_loss += 1
            if seen_loss > MAX_NODE_LOSS_FAULTS:
                entry = FaultEntry(
                    entry.time, "crash", 1.5, {"node": entry.params["node"]}
                )
        capped.append(entry)
    schedule = sorted(capped, key=lambda e: (e.time, e.kind))
    has_loss = any(e.kind == "node_loss" for e in schedule)

    key_space = rng.choice([8, 16, 32])
    read_fraction = rng.uniform(0.35, 0.65)
    ops: list[OpEntry] = []
    op_id = 0
    per_client = max(10, int(duration / 0.12))
    for client in range(n_clients):
        for _ in range(per_client):
            kind = "get" if rng.random() < read_fraction else "put"
            ops.append(
                OpEntry(
                    op_id=op_id,
                    client=client,
                    kind=kind,
                    key=rng.randrange(key_space),
                    think=_r(rng.uniform(0.02, 0.15)),
                )
            )
            op_id += 1

    # Write-path knobs come from a *separate* RNG stream derived from the
    # same seed, so adding them did not shift any draw above — existing
    # plans (and the canary-bug seeds that depend on their exact
    # schedules) are unchanged.
    wp = random.Random(_stable_hash(f"writepath:{seed}"))
    batching = wp.random() < 0.5
    # The choices stay as they were, so no draw moves; a 0 runs the
    # shipped depth.
    pipeline_depth = wp.choice([0, 0, 2, 4, 8]) or PaxosConfig.pipeline_depth

    # Same trick for the read-path knob: its own derived stream, so the
    # write-path draws above (and every existing plan) are unchanged.
    fr = random.Random(_stable_hash(f"followerreads:{seed}"))
    follower_reads = fr.random() < 0.5

    return FuzzPlan(
        master_seed=master_seed,
        iteration=iteration,
        sim_seed=seed,
        n_groups=n_groups,
        group_size=group_size,
        n_clients=n_clients,
        warmup=3.0,
        duration=duration,
        drain=6.0 + (NODE_LOSS_EXTRA_DRAIN if has_loss else 0.0),
        schedule=tuple(schedule),
        ops=tuple(ops),
        storage=True,
        repair=True,
        batching=batching,
        pipeline_depth=pipeline_depth,
        follower_reads=follower_reads,
    )


# ---------------------------------------------------------------------------
# Serialization (used by repro files; JSON-stable)
# ---------------------------------------------------------------------------
def plan_to_dict(plan: FuzzPlan) -> dict[str, Any]:
    return {
        "master_seed": plan.master_seed,
        "iteration": plan.iteration,
        "sim_seed": plan.sim_seed,
        "n_groups": plan.n_groups,
        "group_size": plan.group_size,
        "n_clients": plan.n_clients,
        "warmup": plan.warmup,
        "duration": plan.duration,
        "drain": plan.drain,
        "schedule": [
            {"time": e.time, "kind": e.kind, "duration": e.duration, "params": e.params}
            for e in plan.schedule
        ],
        "ops": [[o.op_id, o.client, o.kind, o.key, o.think] for o in plan.ops],
        "storage": plan.storage,
        "repair": plan.repair,
        "batching": plan.batching,
        "pipeline_depth": plan.pipeline_depth,
        "follower_reads": plan.follower_reads,
    }


def plan_from_dict(data: dict[str, Any]) -> FuzzPlan:
    # Keys no field has are ignored: a repro file written while the disk
    # had a group-commit window carries ``fsync_coalesce``, and replays
    # on the one-fsync-at-a-time disk every plan now runs; one written
    # while Accepts could be coalesced carries ``accept_coalescing``,
    # and replays on the per-slot path.  A legacy ``pipeline_depth`` of
    # 0 (unbounded) runs the shipped depth.
    schedule = tuple(
        FaultEntry(e["time"], e["kind"], e["duration"], dict(e["params"]))
        for e in data["schedule"]
    )
    ops = tuple(OpEntry(*entry) for entry in data["ops"])
    return FuzzPlan(
        master_seed=data["master_seed"],
        iteration=data["iteration"],
        sim_seed=data["sim_seed"],
        n_groups=data["n_groups"],
        group_size=data["group_size"],
        n_clients=data["n_clients"],
        warmup=data["warmup"],
        duration=data["duration"],
        drain=data["drain"],
        schedule=schedule,
        ops=ops,
        storage=data.get("storage", False),
        repair=data.get("repair", False),
        batching=data.get("batching", False),
        pipeline_depth=data.get("pipeline_depth") or PaxosConfig.pipeline_depth,
        follower_reads=data.get("follower_reads", False),
    )
