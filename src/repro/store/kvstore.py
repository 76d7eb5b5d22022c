"""The key-value state machine replicated by each Scatter group.

Keys are integers in the DHT identifier space (hashed from user strings
by the overlay layer).  Values are opaque.  Every mutation bumps a
per-key version; versions let the linearizability checker and the Chirp
application reason about staleness cheaply.

Every result the store hands out is immutable and shared: a miss is the
one :data:`NOT_FOUND`, a read of an unchanged key is the same object
each time (cached on the cell until the next write), and a write ack is
the store's one ``KvResult(ok=True, version=v)`` for that version.  A
finished op's record and every replica's session entry for it hold a
reference, not a copy.

The store also supports *range extraction* and *absorption*: a split
transaction carves the state for one half of a group's range out of the
store, and a merge transaction absorbs a neighbour's state.  Client
session bookkeeping (for exactly-once retried operations) lives in the
store too, because it must move with the data during splits and merges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

OP_GET = "get"
OP_PUT = "put"
OP_DELETE = "delete"
OP_CAS = "cas"

_VALID_OPS = (OP_GET, OP_PUT, OP_DELETE, OP_CAS)


@dataclass(frozen=True, slots=True)
class KvOp:
    """One storage operation, as carried in a group's Paxos log."""

    op: str
    key: int
    value: Any = None
    expected_version: int | None = None  # for cas

    def __post_init__(self) -> None:
        if self.op not in _VALID_OPS:
            raise ValueError(f"unknown op {self.op!r}")


@dataclass(frozen=True, slots=True)
class KvResult:
    """Outcome of a storage operation."""

    ok: bool
    value: Any = None
    version: int = 0
    error: str | None = None


# Every miss, from any store: a result is never mutated, so one will do.
NOT_FOUND = KvResult(ok=False, error="not_found")
# The refusal of a sequence number below its client's watermark.  It can
# only reach an RPC nobody waits on: the client has already taken an
# answer for that op, or given up on it.
STALE = KvResult(ok=False, error="stale")

# A client session is one dict: this key holds the client's watermark
# (sequence numbers start at 1), every other key an answer at or above it.
_LOW = 0


@dataclass(slots=True)
class _Cell:
    value: Any
    version: int
    # The read result for (value, version), built on the first read and
    # dropped by every write; never moved by extract/absorb.
    read: KvResult | None = field(default=None, compare=False, repr=False)

    def result(self) -> KvResult:
        read = self.read
        if read is None:
            read = self.read = KvResult(ok=True, value=self.value, version=self.version)
        return read


@dataclass
class RangeState:
    """Serialized slice of a store, moved by split/merge transactions."""

    cells: dict[int, tuple[Any, int]] = field(default_factory=dict)
    sessions: dict[str, dict[int, Any]] = field(default_factory=dict)


def _raised(session: dict[int, Any], low: int) -> dict[int, Any]:
    """``session`` with its watermark raised to ``low``: a new dict,
    without the answers below it (cheaper than deleting them in place,
    which leaves the small dict to compact on a later insert)."""
    raised = {_LOW: low}
    for seq in session:
        if seq >= low:
            raised[seq] = session[seq]
    return raised


def merge_sessions(target: dict[str, dict[int, Any]], source: dict[str, dict[int, Any]]) -> None:
    """Merge ``source``'s client sessions into ``target`` (which owns its
    dicts; ``source``'s are copied, never shared).

    Per client the larger watermark wins and the answers below it go.
    The same (client, seq) always maps to the same answer, so the union
    of the rest is safe.
    """
    for client, theirs in source.items():
        mine = target.get(client)
        if mine is None:
            target[client] = dict(theirs)
        else:
            target[client] = _raised({**mine, **theirs}, max(mine[_LOW], theirs[_LOW]))


class KvStore:
    """In-memory versioned KV map with client session dedup."""

    def __init__(self) -> None:
        self._cells: dict[int, _Cell] = {}
        # client_id -> {_LOW: watermark, seq: answer, ...}: exactly-once
        # for retried operations.  One client may have many operations
        # in flight, arriving at this shard in any order, so the answers
        # at or above the watermark are kept by exact sequence number.
        self._sessions: dict[str, dict[int, Any]] = {}
        # version -> the ack for a put, delete or CAS that left (or
        # found) the key at that version.  Per store, so what a run
        # retains does not depend on what the process ran before.
        self._acks: dict[int, KvResult] = {}
        self.ops_applied = 0

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def apply(self, op: KvOp, dedup: tuple[str, int, int] | None = None) -> KvResult:
        """Apply ``op``; with ``dedup=(client, seq, low)`` exactly once.

        A ``seq`` already answered returns its stored answer; one below
        the client's watermark returns :data:`STALE` and changes nothing.
        Otherwise the op runs, its answer is kept, and a ``low`` above
        the stored watermark raises it, dropping the answers below.
        """
        if dedup is None:
            result = self._execute(op)
            self.ops_applied += 1
            return result
        client, seq, low = dedup
        session = self._sessions.get(client)
        if session is None:
            session = self._sessions[client] = {_LOW: low}
        else:
            answer = session.get(seq)
            if answer is not None:
                return answer
            mark = session[_LOW]
            if seq < mark:
                return STALE
            if low > mark:
                session = self._sessions[client] = _raised(session, low)
        result = self._execute(op)
        self.ops_applied += 1
        session[seq] = result
        return result

    def _ack(self, version: int) -> KvResult:
        ack = self._acks.get(version)
        if ack is None:
            ack = self._acks[version] = KvResult(ok=True, version=version)
        return ack

    def _execute(self, op: KvOp) -> KvResult:
        cell = self._cells.get(op.key)
        if op.op == OP_GET:
            return NOT_FOUND if cell is None else cell.result()
        if op.op == OP_PUT:
            if cell is None:
                self._cells[op.key] = _Cell(value=op.value, version=1)
                return self._ack(1)
            cell.value = op.value
            cell.version += 1
            cell.read = None
            return self._ack(cell.version)
        if cell is None:  # delete or cas of a missing key
            return NOT_FOUND
        if op.op == OP_DELETE:
            del self._cells[op.key]
            return self._ack(cell.version)
        # OP_CAS
        if op.expected_version is not None and cell.version != op.expected_version:
            return KvResult(ok=False, value=cell.value, version=cell.version, error="conflict")
        cell.value = op.value
        cell.version += 1
        cell.read = None
        return self._ack(cell.version)

    def get(self, key: int) -> KvResult:
        """Read-only lookup (used by lease reads; does not count as an op)."""
        cell = self._cells.get(key)
        return NOT_FOUND if cell is None else cell.result()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cells)

    def keys(self) -> list[int]:
        return sorted(self._cells)

    def keys_in(self, lo: int, hi: int) -> list[int]:
        """Keys in [lo, hi) under ordinary integer order (no wraparound)."""
        return sorted(k for k in self._cells if lo <= k < hi)

    # ------------------------------------------------------------------
    # Range movement (split / merge)
    # ------------------------------------------------------------------
    def extract(self, keys: list[int]) -> RangeState:
        """Remove ``keys`` and return them as a transferable range state.

        Client sessions are copied (not moved): a client may have
        operations on both sides of a split, and duplicate session
        entries are harmless — they only suppress replays and refuse
        what is below a watermark.
        """
        state = RangeState()
        for key in keys:
            cell = self._cells.pop(key, None)
            if cell is not None:
                state.cells[key] = (cell.value, cell.version)
        state.sessions = {c: dict(seqs) for c, seqs in self._sessions.items()}
        return state

    def absorb(self, state: RangeState) -> None:
        """Install a range state produced by :meth:`extract`.

        Sessions merge by :func:`merge_sessions`.
        """
        for key, (value, version) in state.cells.items():
            self._cells[key] = _Cell(value=value, version=version)
        merge_sessions(self._sessions, state.sessions)

    def snapshot(self) -> RangeState:
        """Full copy of the store (bootstrap state for new group members)."""
        return self.extract_copy(self.keys())

    def extract_copy(self, keys: list[int]) -> RangeState:
        """Like :meth:`extract` but non-destructive."""
        state = RangeState()
        for key in keys:
            cell = self._cells.get(key)
            if cell is not None:
                state.cells[key] = (cell.value, cell.version)
        state.sessions = {c: dict(seqs) for c, seqs in self._sessions.items()}
        return state
