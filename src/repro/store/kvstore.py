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


# How many recent (client, seq) results to retain per client.  Retries of
# an operation happen within seconds; a window this size outlives them by
# orders of magnitude while bounding memory.
SESSION_WINDOW = 128


class KvStore:
    """In-memory versioned KV map with client session dedup."""

    def __init__(self) -> None:
        self._cells: dict[int, _Cell] = {}
        # client_id -> {seq: result}: exactly-once for retried operations.
        # Exact-match (not a watermark) because one client may have many
        # operations in flight, arriving at this shard in any order.
        self._sessions: dict[str, dict[int, KvResult]] = {}
        # version -> the ack for a put, delete or CAS that left (or
        # found) the key at that version.  Per store, so what a run
        # retains does not depend on what the process ran before.
        self._acks: dict[int, KvResult] = {}
        self.ops_applied = 0

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def apply(self, op: KvOp, dedup: tuple[str, int] | None = None) -> KvResult:
        """Apply ``op``; with ``dedup=(client, seq)`` retries are idempotent."""
        if dedup is not None:
            client, seq = dedup
            session = self._sessions.get(client)
            if session is not None and seq in session:
                return session[seq]
        result = self._execute(op)
        self.ops_applied += 1
        if dedup is not None:
            client, seq = dedup
            session = self._sessions.setdefault(client, {})
            session[seq] = result
            # Smallest sequence number first (they arrive out of order).
            # One over the window in steady state, so one min() per op;
            # more only right after absorb() merged two sessions.
            while len(session) > SESSION_WINDOW:
                del session[min(session)]
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
        entries are harmless — they only suppress replays.
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

        Session entries merge by union; the same (client, seq) always
        maps to the same result, so collisions are harmless.
        """
        for key, (value, version) in state.cells.items():
            self._cells[key] = _Cell(value=value, version=version)
        for client, seqs in state.sessions.items():
            self._sessions.setdefault(client, {}).update(seqs)

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
