"""The fault vocabulary, and the one runner that applies it.

A fault schedule is a list of :class:`FaultEntry` data: each entry is
applied at its offset from the fault-window start and healed
``duration`` later.  The fuzzer samples schedules, the nemesis
generators (:mod:`repro.faults.nemesis`) draw them from named RNG
streams, and repro files store them; :class:`ScheduleRunner` is the only
code that turns an entry into a crash, a blocked link or a slow disk.
:meth:`ScheduleRunner.stop` heals everything still outstanding (restarts
down nodes, unblocks links, clears slowdowns, restores loss/dup
baselines), Jepsen-style, so the post-fault drain always runs on a
healthy network.

All primitives come from :class:`repro.faults.target.FaultTarget` and
:class:`repro.sim.network.SimNetwork`.  Entries name their victim by
``{"node": name}``, or by ``{"pick": k}``: a pick resolves to
``alive_ids()[k % len(alive)]`` when the entry fires, so a schedule
drawn before the run still hits the *live* population (nodes that
crashed, died or joined meanwhile included).  A pick entry that also
carries ``min_alive`` is skipped when it fires with that many or fewer
live nodes.  Either way the same schedule data re-runs (or shrinks and
re-runs) deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.faults.target import FaultTarget
from repro.sim.loop import Simulator

# Fault kinds a schedule entry may carry (documented in docs/TESTING.md).
# The disk_* kinds need the storage model to bite; without it they are
# applied as no-ops.
FAULT_KINDS = (
    "crash",
    "partition",
    "oneway",
    "gray",
    "drop",
    "dup",
    "group_op",
    "disk_io",
    "disk_slow",
    "disk_corrupt",
    "disk_loss",
    "node_loss",
)


@dataclass(frozen=True)
class FaultEntry:
    """One scheduled fault: applied at ``time``, healed ``duration`` later.

    ``time`` is an offset from the start of the fault window (after
    warmup).  ``params`` is kind-specific plain data — node names, picks,
    sides, probabilities — never live objects, so entries serialize
    cleanly.
    """

    time: float
    kind: str
    duration: float
    params: dict[str, Any]


class ScheduleRunner:
    def __init__(
        self,
        sim: Simulator,
        system,
        target: FaultTarget,
        schedule: Sequence[FaultEntry],
    ) -> None:
        self.sim = sim
        self.system = system  # only group_op entries need it
        self.target = target
        self.schedule = list(schedule)
        self.applied: list[str] = []  # human-readable fault log
        self._base_drop = target.net.drop_prob
        self._base_dup = target.net.dup_prob
        self._active_drops: list[float] = []
        self._active_dups: list[float] = []
        self._stopped = False

    def start(self) -> None:
        for entry in self.schedule:
            self.sim.schedule_fire(entry.time, self._apply, entry)

    def stop(self) -> None:
        """Heal every outstanding fault; later heal events become no-ops."""
        self._stopped = True
        net = self.target.net
        net.heal()
        net.clear_slowdowns()
        self._active_drops.clear()
        self._active_dups.clear()
        net.drop_prob = self._base_drop
        net.dup_prob = self._base_dup
        self.target.clear_disk_faults()
        for node_id in self.target.down_ids():
            self.target.restart(node_id)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _apply(self, entry: FaultEntry) -> None:
        if self._stopped:
            return
        params = entry.params
        if "pick" in params:
            alive = self.target.alive_ids()
            if len(alive) <= params.get("min_alive", 0):
                return
            entry = replace(entry, params={**params, "node": alive[params["pick"] % len(alive)]})
        handler = getattr(self, f"_apply_{entry.kind}")
        handler(entry)
        self.applied.append(f"{entry.time:.3f} {entry.kind}")

    def _apply_crash(self, entry: FaultEntry) -> None:
        node = entry.params["node"]
        if self.target.crash(node):
            self.sim.schedule_fire(entry.duration, self.target.restart, node)

    def _apply_partition(self, entry: FaultEntry) -> None:
        known = set(self.target.node_ids())
        side = [n for n in entry.params["side"] if n in known]
        rest = sorted(known.difference(side))
        if not side or not rest:
            return
        self.target.net.partition(set(side), set(rest))
        self.sim.schedule_fire(entry.duration, self._heal_partition, side, rest)

    def _heal_partition(self, side: list[str], rest: list[str]) -> None:
        if self._stopped:
            return
        for a in side:
            for b in rest:
                self.target.net.unblock(a, b)

    def _apply_oneway(self, entry: FaultEntry) -> None:
        victim = entry.params["node"]
        peers = [n for n in self.target.node_ids() if n != victim]
        if entry.params["mode"] == "inbound":
            self.target.net.isolate_inbound(victim, peers)
            blocked = [(peer, victim) for peer in peers]
        else:
            self.target.net.isolate_outbound(victim, peers)
            blocked = [(victim, peer) for peer in peers]
        self.sim.schedule_fire(entry.duration, self._heal_oneway, blocked)

    def _heal_oneway(self, blocked: list[tuple[str, str]]) -> None:
        if self._stopped:
            return
        for src, dst in blocked:
            self.target.net.unblock_one_way(src, dst)

    def _apply_gray(self, entry: FaultEntry) -> None:
        victim = entry.params["node"]
        peers = [n for n in self.target.node_ids() if n != victim]
        self.target.net.set_node_slowdown(victim, entry.params["factor"], peers)
        self.sim.schedule_fire(entry.duration, self._heal_gray, victim, peers)

    def _heal_gray(self, victim: str, peers: list[str]) -> None:
        if self._stopped:
            return
        self.target.net.set_node_slowdown(victim, 1.0, peers)

    def _apply_drop(self, entry: FaultEntry) -> None:
        prob = entry.params["prob"]
        self._active_drops.append(prob)
        self.target.net.drop_prob = max([self._base_drop, *self._active_drops])
        self.sim.schedule_fire(entry.duration, self._pop_drop, prob)

    def _pop_drop(self, prob: float) -> None:
        if self._stopped:
            return
        if prob in self._active_drops:
            self._active_drops.remove(prob)
        self.target.net.drop_prob = max([self._base_drop, *self._active_drops])

    def _apply_dup(self, entry: FaultEntry) -> None:
        prob = entry.params["prob"]
        self._active_dups.append(prob)
        self.target.net.dup_prob = max([self._base_dup, *self._active_dups])
        self.sim.schedule_fire(entry.duration, self._pop_dup, prob)

    def _pop_dup(self, prob: float) -> None:
        if self._stopped:
            return
        if prob in self._active_dups:
            self._active_dups.remove(prob)
        self.target.net.dup_prob = max([self._base_dup, *self._active_dups])

    # ------------------------- disk faults ----------------------------
    # All of these are no-ops when the deployment has no storage model
    # (FaultTarget's disk primitives return False on disk-less nodes).
    def _apply_disk_io(self, entry: FaultEntry) -> None:
        node = entry.params["node"]
        if self.target.set_disk_io_error(node, True):
            self.sim.schedule_fire(entry.duration, self._heal_disk_io, node)

    def _heal_disk_io(self, node: str) -> None:
        if self._stopped:
            return
        self.target.set_disk_io_error(node, False)

    def _apply_disk_slow(self, entry: FaultEntry) -> None:
        node = entry.params["node"]
        if self.target.set_fsync_factor(node, entry.params["factor"]):
            self.sim.schedule_fire(entry.duration, self._heal_disk_slow, node)

    def _heal_disk_slow(self, node: str) -> None:
        if self._stopped:
            return
        self.target.set_fsync_factor(node, 1.0)

    def _apply_disk_corrupt(self, entry: FaultEntry) -> None:
        """Crash, corrupt a durable WAL tail, restart: recovery detects
        the checksum failure and the node rejoins amnesiac."""
        node = entry.params["node"]
        if self.target.crash(node):
            self.target.corrupt_wal_tail(node, entry.params["records"])
            self.sim.schedule_fire(entry.duration, self.target.restart, node)

    def _apply_disk_loss(self, entry: FaultEntry) -> None:
        """Crash with total disk loss: the node rejoins amnesiac."""
        node = entry.params["node"]
        if self.target.crash(node):
            self.target.lose_disk(node)
            self.sim.schedule_fire(entry.duration, self.target.restart, node)

    def _apply_node_loss(self, entry: FaultEntry) -> None:
        """Permanent failure: no heal event is scheduled, and stop()'s
        restart sweep skips lost nodes (FaultTarget refuses to revive
        them), so the loss outlives the fault window by design."""
        self.target.node_loss(entry.params["node"])

    def _apply_group_op(self, entry: FaultEntry) -> None:
        gids = sorted(self.system.active_groups())
        if not gids:
            return
        gid = gids[entry.params["index"] % len(gids)]
        leader = self.system.leader_of(gid)
        if leader is None:
            return
        if entry.params["op"] == "split":
            future = leader.host.start_split(leader)
        else:
            future = leader.host.start_merge(leader)
        # The op may legitimately fail (bad split key, frozen neighbor);
        # consume the exception so it isn't re-raised at GC time.
        future.add_callback(lambda f: f.exception)
