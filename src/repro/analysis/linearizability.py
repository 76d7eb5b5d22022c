"""Linearizability checking over per-key register histories.

Two checkers are provided:

- :func:`check_key_history` — a fast *sound* checker exploiting unique
  write values.  It flags the violation classes the paper's experiments
  count (stale reads, lost acked writes, phantom reads) and never
  reports a false positive; a pathological interleaving could slip past
  it, so it is a lower bound on violations — the right polarity for the
  claim "Scatter has zero violations".
- :func:`wing_gong_check` — an exhaustive Wing & Gong style search,
  exponential in history size, used on small histories (tests, spot
  checks) and to validate the fast checker.

Histories come from client :class:`~repro.dht.client.OpRecord` lists.
An operation that timed out is *pending*: it may or may not have taken
effect, so its write value is legal to read but never required.

A completed op ends in a value, an ack, a miss (``error="not_found"``)
or a CAS ``conflict``; a refusal is a reason to retry, never an answer
(see :class:`~repro.dht.messages.ClientOpResp`).  A completed op of any
kind that carries another error is a ``client_contract`` violation, and
its effect is unknown: a refused put stays a pending write, a refused
get constrains nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

NOT_FOUND = "__not_found__"

# The errors a completed op may answer with; any other is a refusal.
_ANSWER_ERRORS = ("not_found", "conflict")


@dataclass
class _Write:
    value: object
    invoke: float
    response: float
    acked: bool  # completed ok; pending (timeout) writes are not acked


@dataclass
class _Read:
    value: object  # NOT_FOUND for a miss
    invoke: float
    response: float


@dataclass
class Violation:
    key: int
    kind: str
    detail: str
    time: float


@dataclass
class CheckResult:
    total_reads: int = 0
    total_writes: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violation_fraction(self) -> float:
        if self.total_reads == 0:
            return 0.0
        return len(self.violations) / self.total_reads


def _partition(records: Iterable) -> tuple[list[_Write], list[_Read], list]:
    writes: list[_Write] = []
    reads: list[_Read] = []
    refused: list = []  # completed ops answered with a refusal
    for r in records:
        refusal = r.completed and not r.result.ok and r.result.error not in _ANSWER_ERRORS
        if refusal:
            refused.append(r)
        if r.op == "put":
            # A put with no result yet (still in flight when the run
            # ended) or a timed-out put may nevertheless have been
            # applied server-side: keep it as a pending (unacked,
            # unbounded-end) write so a later read of its value is a
            # legal reads-from, not a phantom.
            acked = r.completed and r.result is not None and r.result.ok
            # An unacked write's effect is unbounded in time: the server
            # may apply it after the client's timeout response arrived.
            end = r.response_time if acked and r.response_time >= 0 else float("inf")
            writes.append(_Write(r.value, r.invoke_time, end, acked))
        elif r.op == "get":
            if not r.completed or refusal:
                continue  # a timed-out, unresolved or refused read constrains nothing
            value = r.result.value if r.result.ok else NOT_FOUND
            reads.append(_Read(value, r.invoke_time, r.response_time))
    return writes, reads, refused


def check_key_history(
    key: int, records: list, window: tuple[float, float] | None = None
) -> CheckResult:
    """Fast sound checker for one key's history (unique write values).

    ``window`` restricts which *reads* are judged (and counted) and
    which answers are held to the contract; writes are always taken
    from the full history — a read inside the window may legitimately
    return a value written before it.
    """
    writes, reads, refused = _partition(records)
    if window is not None:
        lo, hi = window
        reads = [r for r in reads if lo <= r.invoke < hi]
        refused = [r for r in refused if lo <= r.invoke_time < hi]
    result = CheckResult(total_reads=len(reads), total_writes=len(writes))
    for r in refused:
        result.violations.append(
            Violation(key, "client_contract", f"{r.op} answered {r.result.error!r}", r.invoke_time)
        )
    by_value = {w.value: w for w in writes}

    for read in reads:
        if read.value == NOT_FOUND:
            # A miss is illegal once some acked write finished before the
            # read began (nothing deletes keys in checker workloads).
            culprit = next(
                (w for w in writes if w.acked and w.response < read.invoke), None
            )
            if culprit is not None:
                result.violations.append(
                    Violation(key, "lost_write", f"miss after write {culprit.value!r}", read.invoke)
                )
            continue
        source = by_value.get(read.value)
        if source is None:
            result.violations.append(
                Violation(key, "phantom_read", f"value {read.value!r} never written", read.invoke)
            )
            continue
        if source.invoke > read.response:
            result.violations.append(
                Violation(key, "future_read", f"read {read.value!r} before its write began", read.invoke)
            )
            continue
        # Stale read: some other acked write finished before the read
        # began AND began after the source write finished — so the
        # register definitely held a newer value throughout the read.
        for other in writes:
            if other is source or not other.acked:
                continue
            if other.response < read.invoke and other.invoke > source.response:
                result.violations.append(
                    Violation(
                        key,
                        "stale_read",
                        f"read {read.value!r} but {other.value!r} strictly newer",
                        read.invoke,
                    )
                )
                break
    return result


def check_history(records: list, window: tuple[float, float] | None = None) -> CheckResult:
    """Group records by key and check each key independently."""
    by_key: dict[int, list] = {}
    for r in records:
        by_key.setdefault(r.key, []).append(r)
    combined = CheckResult()
    for key, recs in sorted(by_key.items()):
        single = check_key_history(key, recs, window=window)
        combined.total_reads += single.total_reads
        combined.total_writes += single.total_writes
        combined.violations.extend(single.violations)
    return combined


# ---------------------------------------------------------------------------
# Exhaustive checker (small histories)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    """An operation for the exhaustive checker."""

    kind: str  # "read" | "write"
    value: object
    invoke: float
    response: float  # inf for pending ops


def wing_gong_check(ops: list[Op], initial: object = NOT_FOUND, max_ops: int = 18) -> bool:
    """Exhaustive register linearizability check (Wing & Gong search).

    Returns True iff a legal linearization exists.  Pending operations
    (response == inf) may linearize anywhere after their invocation or
    not at all.  Exponential: refuses histories above ``max_ops``.
    """
    if len(ops) > max_ops:
        raise ValueError(f"history too large for exhaustive check ({len(ops)} > {max_ops})")
    ops = sorted(ops, key=lambda o: (o.invoke, o.response))
    n = len(ops)
    pending = [o.response == float("inf") for o in ops]

    seen: set[tuple[frozenset, object]] = set()

    def minimal_response(remaining: frozenset) -> float:
        return min(
            (ops[i].response for i in remaining if not pending[i]), default=float("inf")
        )

    def search(remaining: frozenset, state: object) -> bool:
        if all(pending[i] for i in remaining):
            return True  # every leftover op may simply never take effect
        marker = (remaining, state)
        if marker in seen:
            return False
        seen.add(marker)
        bound = minimal_response(remaining)
        for i in sorted(remaining):
            op = ops[i]
            if op.invoke > bound:
                break  # ops invoked after the earliest pending response can wait
            if op.kind == "read":
                if op.value != state:
                    continue
                if search(remaining - {i}, state):
                    return True
            else:
                if search(remaining - {i}, op.value):
                    return True
        return False

    return search(frozenset(range(n)), initial)
