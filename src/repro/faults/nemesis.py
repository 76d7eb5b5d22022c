"""Nemesis generators: randomized fault schedules as plain data.

A *nemesis* (the Jepsen term) injects faults into a running system on a
randomized schedule.  Here each nemesis kind is a function
``(rng, window, node_ids, **params) -> list[FaultEntry]`` that draws the
whole schedule for a fault window of ``window`` seconds up front; the
:class:`~repro.faults.schedule.ScheduleRunner` applies and heals it, as
it does every fuzz plan.  Callers draw ``rng`` from a named simulator
stream (``sim.rng("nemesis:<name>")``), so a (scenario, seed) pair
reproduces the exact same schedule.

Shared shape: rounds start at ``uniform(0, period)`` and recur every
``period * uniform(0.5, 1.5)`` inside the window.  Victims are picks,
resolved against the live population when they fire; partition sides
come from ``node_ids``.  Every kind but the storms keeps one fault at a
time, and the crash storm never has more than ``max_down`` victims down
at once: both hold by construction, since each entry's duration is
known when it is drawn.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Callable, Iterator

from repro.faults.schedule import FaultEntry


def _rounds(rng: random.Random, window: float, period: float) -> Iterator[float]:
    """Round start times: first at ``uniform(0, period)``, then jittered."""
    t = rng.uniform(0, period)
    while t < window:
        yield t
        t += period * rng.uniform(0.5, 1.5)


def _one_at_a_time(
    rng: random.Random, window: float, period: float, draw: Callable[[float], FaultEntry]
) -> list[FaultEntry]:
    """One ``draw(t)`` per round, skipping rounds while the last is active."""
    entries: list[FaultEntry] = []
    busy_until = 0.0
    for t in _rounds(rng, window, period):
        if t >= busy_until:
            entries.append(draw(t))
            busy_until = t + entries[-1].duration
    return entries


def _pick(rng: random.Random) -> int:
    return rng.getrandbits(31)


def crash_storm(
    rng: random.Random,
    window: float,
    node_ids: list[str],
    interval: float = 2.0,
    downtime: tuple[float, float] = (1.0, 4.0),
    max_down: int = 1,
) -> list[FaultEntry]:
    """Crash a live node, restart it after a random downtime; at most
    ``max_down`` of the storm's victims are down at once."""
    entries: list[FaultEntry] = []
    up_at: list[float] = []
    for t in _rounds(rng, window, interval):
        up_at = [end for end in up_at if end > t]
        if len(up_at) < max_down:
            entries.append(FaultEntry(t, "crash", rng.uniform(*downtime), {"pick": _pick(rng)}))
            up_at.append(t + entries[-1].duration)
    return entries


def node_loss_storm(
    rng: random.Random,
    window: float,
    node_ids: list[str],
    interval: float = 4.0,
    max_losses: int = 2,
    min_alive: int = 5,
) -> list[FaultEntry]:
    """Permanent losses: victims never come back.  Healing is the
    *system's* job (Scatter's repair, a hardened Chord's
    re-replication), which is what this nemesis exists to exercise.
    At most ``max_losses`` entries; each is skipped when it fires with
    ``min_alive`` or fewer live nodes, so a remedy can still exist."""
    return [
        FaultEntry(t, "node_loss", 0.0, {"pick": _pick(rng), "min_alive": min_alive})
        for t in islice(_rounds(rng, window, interval), max_losses)
    ]


def rolling_partition(
    rng: random.Random,
    window: float,
    node_ids: list[str],
    period: float = 4.0,
    duration: float = 1.5,
) -> list[FaultEntry]:
    """Symmetric partitions that move: a random minority side is cut
    off for ``duration``, healed, and a new side chosen next round."""
    if len(node_ids) < 2:
        return []

    def draw(t: float) -> FaultEntry:
        size = rng.randrange(1, max(2, len(node_ids) // 2 + 1))
        return FaultEntry(t, "partition", duration, {"side": sorted(rng.sample(node_ids, size))})

    return _one_at_a_time(rng, window, period, draw)


def asymmetric_partition(
    rng: random.Random,
    window: float,
    node_ids: list[str],
    period: float = 4.0,
    duration: float = 1.5,
    mode: str = "inbound",  # "inbound", "outbound", or "random"
) -> list[FaultEntry]:
    """One-way partitions: a victim that can send but not receive (or
    the reverse) — the edge case symmetric fault tests never cover, and
    the one *How to Make Chord Correct* shows breaking overlay
    invariants."""
    if mode not in ("inbound", "outbound", "random"):
        raise ValueError(f"bad mode {mode}")

    def draw(t: float) -> FaultEntry:
        pick = _pick(rng)
        way = mode
        if way == "random":
            way = "inbound" if rng.random() < 0.5 else "outbound"
        return FaultEntry(t, "oneway", duration, {"pick": pick, "mode": way})

    return _one_at_a_time(rng, window, period, draw)


def gray_slowdown(
    rng: random.Random,
    window: float,
    node_ids: list[str],
    period: float = 5.0,
    duration: float = 2.5,
    slowdown: tuple[float, float] = (10.0, 50.0),
) -> list[FaultEntry]:
    """Gray failure: a victim's links get ``slowdown`` times slower, not
    dead — naive is-it-up probes stay happy while leases expire, RPCs
    time out and retry storms build."""
    return _one_at_a_time(rng, window, period, lambda t: FaultEntry(
        t, "gray", duration, {"pick": _pick(rng), "factor": rng.uniform(*slowdown)}
    ))


def drop_burst(
    rng: random.Random,
    window: float,
    node_ids: list[str],
    period: float = 5.0,
    duration: float = 1.0,
    drop_prob: float = 0.4,
) -> list[FaultEntry]:
    """Windows of heavy message loss on every link."""
    return _one_at_a_time(
        rng, window, period, lambda t: FaultEntry(t, "drop", duration, {"prob": drop_prob})
    )


def duplicator(
    rng: random.Random,
    window: float,
    node_ids: list[str],
    period: float = 4.0,
    duration: float = 2.0,
    dup_prob: float = 0.3,
) -> list[FaultEntry]:
    """At-least-once delivery windows: messages may arrive twice,
    independently timed, which stresses command dedup."""
    return _one_at_a_time(
        rng, window, period, lambda t: FaultEntry(t, "dup", duration, {"prob": dup_prob})
    )


def disk_faults(
    rng: random.Random,
    window: float,
    node_ids: list[str],
    period: float = 4.0,
    duration: float = 1.5,
    slow_factor: tuple[float, float] = (10.0, 100.0),
    downtime: tuple[float, float] = (0.5, 2.0),
) -> list[FaultEntry]:
    """Storage faults: an IO-error window (the replica goes silent
    instead of acking), a slow-fsync window (the storage flavor of gray
    failure), or a power cycle (crash and restart through lost-suffix
    recovery).  No-ops on deployments without disks."""

    def draw(t: float) -> FaultEntry:
        pick = _pick(rng)
        mode = rng.choice(("io_error", "slow", "power_cycle"))
        if mode == "io_error":
            return FaultEntry(t, "disk_io", duration, {"pick": pick})
        if mode == "slow":
            params = {"pick": pick, "factor": rng.uniform(*slow_factor)}
            return FaultEntry(t, "disk_slow", duration, params)
        return FaultEntry(t, "crash", rng.uniform(*downtime), {"pick": pick})

    return _one_at_a_time(rng, window, period, draw)
