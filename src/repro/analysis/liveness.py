"""Liveness watchdog: detect progress stalls in a running simulation.

Safety checks (linearizability, agreement) pass trivially on a system
that has wedged — no operations, no violations.  The watchdog closes
that hole: it samples a monotonic *progress probe* (completed client
ops, summed commit indexes, applied-log length, ...) on a timer and
records every window of simulated time longer than ``window`` in which
the probe did not advance.  Fault tests can then assert *recovery* —
"the system stalled during the partition but resumed within N seconds
of the heal" — instead of safety alone.

:class:`GroupQuorumWatch` renders the companion verdict for *groups*:
a consensus group that has permanently lost quorum (a majority of its
members are gone or amnesiac) can never elect a leader again, so it
will stall forever by design — repair cannot touch it, and the
``replication-floor`` invariant deliberately skips it.  The watch
samples per-group voting strength and distinguishes "permanently below
quorum since t=X" (dead) from "dipped below quorum and recovered"
(transient), reporting the first-below-quorum timestamp for each dead
group.  Like the watchdog, it is probe-driven and knows nothing about
any particular system type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.loop import Simulator


@dataclass(frozen=True)
class Stall:
    """One interval with no observed progress.

    ``start`` is the time of the last progress before the stall;
    ``end`` is when progress was next observed (or the watchdog
    stopped).  ``open`` marks a stall still unresolved at stop time.
    """

    start: float
    end: float
    open: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class LivenessWatchdog:
    """Samples a progress probe and records stalls.

    ``probe`` must be monotonically non-decreasing (a counter).  The
    watchdog polls every ``check_interval`` (default ``window / 4``),
    so stall boundaries are accurate to one poll interval.
    """

    def __init__(
        self,
        sim: Simulator,
        probe: Callable[[], float],
        window: float = 5.0,
        check_interval: float | None = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.sim = sim
        self.probe = probe
        self.window = window
        self.check_interval = check_interval if check_interval is not None else window / 4
        self.stalls: list[Stall] = []
        self.running = False
        self._last_value: float | None = None
        self._last_progress = 0.0
        self._in_stall = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._last_value = self.probe()
        self._last_progress = self.sim.now
        self._in_stall = False
        self.sim.schedule(self.check_interval, self._tick)

    def stop(self) -> None:
        """Stop sampling; an unresolved stall is recorded as open."""
        if not self.running:
            return
        self.running = False
        self._check_now()
        if self._in_stall:
            self.stalls.append(Stall(self._last_progress, self.sim.now, open=True))
            self._in_stall = False

    def _tick(self) -> None:
        if not self.running:
            return
        self._check_now()
        self.sim.schedule(self.check_interval, self._tick)

    def _check_now(self) -> None:
        value = self.probe()
        now = self.sim.now
        if self._last_value is None or value > self._last_value:
            if self._in_stall:
                self.stalls.append(Stall(self._last_progress, now))
                self._in_stall = False
            self._last_value = value
            self._last_progress = now
        elif not self._in_stall and now - self._last_progress >= self.window:
            self._in_stall = True

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def stall_count(self) -> int:
        return len(self.stalls)

    @property
    def max_stall(self) -> float:
        return max((s.duration for s in self.stalls), default=0.0)

    @property
    def unrecovered(self) -> bool:
        """Did the run end inside a stall (no recovery observed)?"""
        return any(s.open for s in self.stalls)

@dataclass(frozen=True)
class QuorumVerdict:
    """Terminal quorum health of one consensus group.

    ``verdict`` is ``"dead"`` (below quorum at stop — permanently, since
    a group without quorum cannot act to regain it), ``"transient"``
    (dipped below quorum at some point but held it at stop), or
    ``"healthy"`` (never observed below quorum).  ``first_below`` is
    the start of the below-quorum window that was still open at stop
    (dead groups only); ``dips`` counts recovered below-quorum windows.
    """

    gid: str
    verdict: str
    first_below: float | None
    dips: int


class GroupQuorumWatch:
    """Samples per-group voting strength and issues quorum verdicts.

    ``probe`` returns ``{gid: (voting, members)}`` — live replicas able
    to vote vs. the group's configured membership size — for every
    group that currently exists.  A group that disappears between
    samples was retired legitimately (merged away) and is dropped from
    the report; death is only ever declared for a group still present
    at the final sample.  Poll accuracy is one ``check_interval``.
    """

    def __init__(
        self,
        sim: Simulator,
        probe: Callable[[], dict[str, tuple[int, int]]],
        check_interval: float = 1.0,
    ) -> None:
        if check_interval <= 0:
            raise ValueError("check_interval must be positive")
        self.sim = sim
        self.probe = probe
        self.check_interval = check_interval
        self.running = False
        self._below_since: dict[str, float] = {}
        self._dips: dict[str, int] = {}
        self._last_sample: dict[str, tuple[int, int]] = {}

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._sample()
        self.sim.schedule(self.check_interval, self._tick)

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        self._sample()

    def _tick(self) -> None:
        if not self.running:
            return
        self._sample()
        self.sim.schedule(self.check_interval, self._tick)

    def _sample(self) -> None:
        sample = self.probe()
        now = self.sim.now
        for gid in list(self._below_since):
            if gid not in sample:
                # Retired between samples — a merged-away group is not
                # a dead one, and its dip history dies with it.
                del self._below_since[gid]
                self._dips.pop(gid, None)
        for gid, (voting, members) in sample.items():
            below = voting < members // 2 + 1
            if below:
                self._below_since.setdefault(gid, now)
            elif gid in self._below_since:
                del self._below_since[gid]
                self._dips[gid] = self._dips.get(gid, 0) + 1
        self._last_sample = sample

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def verdicts(self) -> dict[str, QuorumVerdict]:
        """Verdict per group present at the final sample."""
        out: dict[str, QuorumVerdict] = {}
        for gid in sorted(self._last_sample):
            first = self._below_since.get(gid)
            dips = self._dips.get(gid, 0)
            if first is not None:
                verdict = "dead"
            elif dips:
                verdict = "transient"
            else:
                verdict = "healthy"
            out[gid] = QuorumVerdict(gid, verdict, first, dips)
        return out

    def dead_groups(self) -> dict[str, float]:
        """``{gid: first_below_quorum_time}`` for groups dead at stop."""
        return {
            gid: v.first_below
            for gid, v in self.verdicts().items()
            if v.verdict == "dead"
        }
