"""Classic 2PC with an unreplicated coordinator — the blocking strawman.

Used by the E12 ablation: when a plain 2PC coordinator dies between
collecting votes and announcing the outcome, prepared participants hold
their locks forever (they cannot unilaterally decide).  Scatter's
replicated-coordinator transactions resolve the same failure in bounded
time.  This module is deliberately minimal: one coordinator node, N
participant nodes, one lock each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.futures import Future, RpcError, RpcTimeout, all_of, spawn
from repro.net.node import Node
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork


@dataclass(frozen=True)
class PrepareReq:
    """Phase-1 vote request from the coordinator."""

    txn_id: str
    payload: Any = None


@dataclass(frozen=True)
class DecisionMsg:
    """Phase-2 commit/abort decision, fire-and-forget."""

    txn_id: str
    commit: bool


@dataclass(frozen=True)
class VoteResp:
    """A participant's vote; ``ok=False`` forces an abort."""

    ok: bool


class ClassicParticipant(Node):
    """Locks on prepare; holds the lock until it hears a decision."""

    def __init__(self, node_id: str, sim: Simulator, net: SimNetwork) -> None:
        super().__init__(node_id, sim, net)
        self.locked_txn: str | None = None
        self.lock_acquired_at = -1.0
        self.committed: list[str] = []
        self.aborted: list[str] = []

    @property
    def blocked_for(self) -> float:
        """How long the current lock has been held (0 when unlocked)."""
        if self.locked_txn is None:
            return 0.0
        return self.sim.now - self.lock_acquired_at

    def _on_prepare(self, src: str, msg: PrepareReq) -> VoteResp:
        if self.locked_txn is not None and self.locked_txn != msg.txn_id:
            return VoteResp(ok=False)
        self.locked_txn = msg.txn_id
        self.lock_acquired_at = self.sim.now
        return VoteResp(ok=True)

    def _on_decision(self, src: str, msg: DecisionMsg) -> None:
        if self.locked_txn != msg.txn_id:
            return
        (self.committed if msg.commit else self.aborted).append(msg.txn_id)
        self.locked_txn = None

    _HANDLERS = {PrepareReq: _on_prepare, DecisionMsg: _on_decision}


class ClassicCoordinator(Node):
    """Single-node 2PC coordinator.  If it dies mid-protocol, that's it."""

    def __init__(self, node_id: str, sim: Simulator, net: SimNetwork, timeout: float = 1.0) -> None:
        super().__init__(node_id, sim, net)
        self.timeout = timeout
        self.outcomes: dict[str, bool] = {}

    def run_txn(self, txn_id: str, participants: list[str]) -> Future:
        """Drive one 2PC round; resolves with "committed" or "aborted"."""
        return spawn(self.sim, self._drive(txn_id, participants))

    def _drive(self, txn_id: str, participants: list[str]):
        votes = [
            self.request(p, PrepareReq(txn_id), timeout=self.timeout) for p in participants
        ]
        try:
            results = yield all_of(votes)
        except (RpcTimeout, RpcError):
            self._decide(txn_id, participants, commit=False)
            return "aborted"
        commit = all(v.ok for v in results)
        self._decide(txn_id, participants, commit)
        return "committed" if commit else "aborted"

    def _decide(self, txn_id: str, participants: list[str], commit: bool) -> None:
        self.outcomes[txn_id] = commit
        for p in participants:
            self.send(p, DecisionMsg(txn_id, commit))
