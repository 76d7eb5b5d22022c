"""Intentionally-buggy modes that prove the fuzzer has teeth.

A fuzzer that has never found a bug is indistinguishable from one that
cannot.  Each demo bug weakens one load-bearing line of the protocol for
the duration of a ``with`` block:

- ``quorum-off-by-one`` weakens the Paxos quorum from ``n//2 + 1`` to
  ``max(1, n//2)`` — a minority "quorum", the classic off-by-one.  Under
  partitions this lets both sides elect leaders and choose conflicting
  values, which the invariant registry (log divergence, duplicate
  leases) and the linearizability checker then catch.
- ``forgotten-promise`` makes the acceptor *claim* its promise hit the
  WAL without ever appending it — acks still go out after a plausible
  fsync delay, but a power failure reveals the promise was never
  durable, so a restarted acceptor can promise backwards.  The
  ``acceptor-durability`` invariant catches the renege at recovery
  time.  Only bites on plans with the storage model enabled and at
  least one crash.
- ``repair-race`` races the repair path against its own serialization:
  instead of coordinating the pull-in migrate as a 2PC with the donor,
  the fragile group "just adds" the spare to its own membership with a
  raw config command.  The donor never releases the node and the spare
  never receives a welcome or state, so the group's *roster* says it is
  healed while its *live replication* stays degraded.  The quiescent
  ``replication-floor`` invariant counts attending replicas, not roster
  lines, and catches it.  Only bites on plans with a ``node_loss``
  fault (the only plans where the floor is asserted).
- ``stale-follower-read`` skips the follower's conflict-window check:
  a granted follower serves any Get locally the moment its applied
  prefix covers the advertised frontier, without checking its own
  accepted-but-unapplied window.  A Get
  racing a Put on the same key can then return the old value *after*
  the Put was acknowledged elsewhere — a stale read the per-key
  linearizability checker flags.  Only bites on plans with
  ``follower_reads`` enabled (about half of sampled plans).
- ``session-forgets-open-op`` plants the hole a client-session window
  of one has: a store that applies a client's op trims its session at
  that op's own sequence number, not at the client's watermark, and
  applies whatever arrives below it.  A late retry of a still-open op,
  or a duplicate of an answered one, is then applied a second time.
  The fuzzer's scripted clients keep one op open at a time, so only a
  duplicate delayed past the client's next op can expose it, and a
  put landing twice is visible only if a write to the same key and a
  read fall in between: no fuzz campaign has caught it within the
  canary budget.  The session model in ``tests/test_kvstore.py`` does.
- ``refusal-as-answer`` plants back the wrapper that once lost a write:
  an op refused at apply (its group froze or retired after the op was
  proposed) reaches the client as ``status="ok"`` carrying
  ``KvResult(ok=False, error="busy")`` instead of as a ``busy`` or
  ``redirect`` status.  The client takes it as final; the
  linearizability checker flags it as ``client_contract``.  Only bites
  when a group operation freezes or retires a group with client ops in
  its log.

The patch is applied at class level inside the context manager and
always restored, so production code paths never see it; nothing outside
``repro.check`` imports this module.  The CI canary asserts the fuzzer
finds and shrinks these, ``session-forgets-open-op`` aside, within a
bounded iteration budget.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.consensus.commands import Command
from repro.consensus.replica import PaxosReplica
from repro.dht.messages import ClientOpResp
from repro.dht.scatter import ScatterNode
from repro.store.kvstore import _LOW, KvResult, KvStore

DEMO_BUGS = (
    "quorum-off-by-one",
    "forgotten-promise",
    "repair-race",
    "stale-follower-read",
    "session-forgets-open-op",
    "refusal-as-answer",
)


def _buggy_majority(self) -> int:
    return max(1, len(self.members) // 2)


def _forgotten_promise(self, ballot) -> bool:
    return True  # "sure, it's on disk" — without touching the WAL


def _raced_repair_migrate(self, replica, node, donor):
    # "Why bother with the 2PC?  The spare is right there."  The roster
    # gains a member; the donor keeps it too, and nobody ships state.
    replica.paxos.propose(Command.config("add", node))
    return "committed"
    yield  # unreachable — keeps this a generator like the original


def _skip_conflict_window(self, key) -> bool:
    return True  # "the prefix covers the frontier, what could be in flight?"


_apply = KvStore.apply  # the real one, for an op without a token


def _forgetful_apply(self, op, dedup=None):
    # "Everything before this op is done with": a window of one, and no
    # refusal below it.
    if dedup is None:
        return _apply(self, op)
    client, seq, _low = dedup
    session = self._sessions.get(client)
    if session is not None and seq in session:
        return session[seq]
    result = self._execute(op)
    self.ops_applied += 1
    self._sessions[client] = {_LOW: seq, seq: result}
    return result


_client_result_to_resp = ScatterNode._client_result_to_resp  # the real one


def _refusal_as_answer(self, future):
    # "The op came back from the log, so it has an answer."
    if future.exception is None and isinstance(future.result(), str):
        return ClientOpResp(status="ok", result=KvResult(ok=False, error=future.result()))
    return _client_result_to_resp(self, future)


# name -> (class, attribute, replacement)
_PATCHES = {
    "quorum-off-by-one": (PaxosReplica, "_majority", _buggy_majority),
    "forgotten-promise": (PaxosReplica, "_persist_promise", _forgotten_promise),
    "repair-race": (ScatterNode, "_repair_migrate_proc", _raced_repair_migrate),
    "stale-follower-read": (PaxosReplica, "_fr_conflict_free", _skip_conflict_window),
    "session-forgets-open-op": (KvStore, "apply", _forgetful_apply),
    "refusal-as-answer": (ScatterNode, "_client_result_to_resp", _refusal_as_answer),
}


@contextmanager
def demo_bug(name: str | None):
    """Activate the named demo bug for the duration of the block."""
    if name is None:
        yield
        return
    if name not in DEMO_BUGS:
        raise ValueError(f"unknown demo bug {name!r}; known: {', '.join(DEMO_BUGS)}")
    cls, attr, replacement = _PATCHES[name]
    original = getattr(cls, attr)
    setattr(cls, attr, replacement)
    try:
        yield
    finally:
        setattr(cls, attr, original)
