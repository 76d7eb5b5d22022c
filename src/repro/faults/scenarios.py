"""Declarative scenario registry: named, shareable fault schedules.

A scenario is data — which nemeses, with which knobs — so the same fault
schedule is runnable from a test, a benchmark, or the CLI
(``python -m repro nemesis <name>``) without copy-pasting schedule code.
Determinism contract: ``build_scenario`` derives each nemesis's RNG
stream from the scenario name and spec index, so a (scenario, simulator
seed) pair always reproduces the identical fault schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.faults import nemesis
from repro.faults.schedule import FaultEntry
from repro.faults.target import FaultTarget
from repro.sim.loop import Simulator

NEMESIS_KINDS: dict[str, Callable[..., list[FaultEntry]]] = {
    "crash_storm": nemesis.crash_storm,
    "rolling_partition": nemesis.rolling_partition,
    "asymmetric_partition": nemesis.asymmetric_partition,
    "drop_burst": nemesis.drop_burst,
    "gray_slowdown": nemesis.gray_slowdown,
    "duplicator": nemesis.duplicator,
    "disk_faults": nemesis.disk_faults,
    "node_loss_storm": nemesis.node_loss_storm,
}


@dataclass(frozen=True)
class Scenario:
    """A named, composable fault schedule.

    ``nemeses`` lists ``(kind, params)`` pairs: a kind from
    ``NEMESIS_KINDS`` and the keyword arguments its generator takes.
    ``needs_storage`` marks scenarios whose faults act on simulated
    disks: deployment builders (the CLI ``nemesis`` command,
    ``_nemesis_run``) enable the durable-storage model for them, since
    against a disk-less deployment those nemeses would be no-ops.
    """

    name: str
    description: str
    nemeses: tuple[tuple[str, dict[str, Any]], ...]
    needs_storage: bool = False
    # Scenarios built around permanent node loss are only a fair fight
    # when the system's self-healing is on: deployment builders enable
    # the Scatter repair policy (and the hardened Chord baseline) for
    # them.
    needs_repair: bool = False

    def __post_init__(self) -> None:
        for kind, _ in self.nemeses:
            if kind not in NEMESIS_KINDS:
                raise ValueError(f"unknown nemesis kind {kind!r}")


def build_scenario(
    scenario: Scenario | str, sim: Simulator, target: FaultTarget, window: float
) -> list[FaultEntry]:
    """A scenario's fault schedule for a ``window``-second fault window,
    every nemesis merged and sorted by time (hand it to a
    :class:`~repro.faults.schedule.ScheduleRunner` started at the
    window's first instant)."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    node_ids = target.node_ids()
    entries: list[FaultEntry] = []
    for i, (kind, params) in enumerate(scenario.nemeses):
        rng = sim.rng(f"nemesis:{scenario.name}/{i}:{kind}")
        entries += NEMESIS_KINDS[kind](rng, window, node_ids, **params)
    return sorted(entries, key=lambda e: (e.time, e.kind))


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


# ---------------------------------------------------------------------------
# The registry.  Timing is tuned for the experiment Paxos profile
# (heartbeats 0.1-0.25 s, elections 0.5-1.2 s): faults last long enough
# to force elections and lease expiries but heal within a few seconds.
# ---------------------------------------------------------------------------
SCENARIOS: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> None:
    SCENARIOS[scenario.name] = scenario


_register(Scenario(
    name="clean_crash",
    description="Fail-stop storm: one node at a time crashes and restarts "
                "after a few seconds — the failure mode every system tests.",
    nemeses=(
        ("crash_storm", {"interval": 3.0, "downtime": (1.5, 4.0), "max_down": 1}),
    ),
))

_register(Scenario(
    name="crash_storm",
    description="Aggressive crash/restart storm: up to two nodes down at "
                "once with short intervals between kills.",
    nemeses=(
        ("crash_storm", {"interval": 1.5, "downtime": (0.5, 3.0), "max_down": 2}),
    ),
))

_register(Scenario(
    name="rolling_partition",
    description="Symmetric partitions that move: a random minority is cut "
                "off, healed, and a new side is chosen.",
    nemeses=(
        ("rolling_partition", {"period": 4.0, "duration": 1.5}),
    ),
))

_register(Scenario(
    name="asymmetric_partition",
    description="One-way partitions: a victim can send but not receive "
                "(or vice versa) — the schedule symmetric tests miss.",
    nemeses=(
        ("asymmetric_partition", {"period": 4.0, "duration": 1.5, "mode": "random"}),
    ),
))

_register(Scenario(
    name="gray_failure",
    description="Gray failure: a victim's links degrade 10-50x instead of "
                "dying, defeating timeout-based failure detectors.",
    nemeses=(
        ("gray_slowdown", {"period": 5.0, "duration": 2.5, "slowdown": (10.0, 50.0)}),
    ),
))

_register(Scenario(
    name="drop_burst",
    description="Bursts of 40% message loss on every link.",
    nemeses=(
        ("drop_burst", {"period": 5.0, "duration": 1.5, "drop_prob": 0.4}),
    ),
))

_register(Scenario(
    name="dup_delivery",
    description="At-least-once delivery windows: 30% of messages delivered "
                "twice with independent timing — stresses command dedup.",
    nemeses=(
        ("duplicator", {"period": 4.0, "duration": 2.5, "dup_prob": 0.3}),
    ),
))

_register(Scenario(
    name="disk_faults",
    description="Storage faults: IO-error windows, 10-100x slow fsync, and "
                "power cycles that lose the un-fsynced WAL suffix.  Only "
                "meaningful against deployments with the storage model on.",
    nemeses=(
        ("disk_faults", {"period": 3.0, "duration": 1.5,
                         "slow_factor": (10.0, 100.0), "downtime": (0.5, 2.0)}),
    ),
    needs_storage=True,
))

_register(Scenario(
    name="node_loss_storm",
    description="Permanent failures: nodes die for good (disk and all), "
                "never restarting.  The system's own repair must restore "
                "replication before the next loss lands.",
    nemeses=(
        ("node_loss_storm", {"interval": 6.0, "max_losses": 2, "min_alive": 6}),
        ("crash_storm", {"interval": 5.0, "downtime": (1.0, 3.0), "max_down": 1}),
    ),
    needs_repair=True,
))

_register(Scenario(
    name="chaos",
    description="Everything at once: crashes, one-way partitions, gray "
                "links, loss bursts, and duplication.",
    nemeses=(
        ("crash_storm", {"interval": 4.0, "downtime": (1.0, 3.0), "max_down": 1}),
        ("asymmetric_partition", {"period": 6.0, "duration": 1.2, "mode": "random"}),
        ("gray_slowdown", {"period": 7.0, "duration": 2.0, "slowdown": (8.0, 30.0)}),
        ("drop_burst", {"period": 8.0, "duration": 1.0, "drop_prob": 0.3}),
        ("duplicator", {"period": 9.0, "duration": 2.0, "dup_prob": 0.2}),
    ),
))
