"""Circular key space shared by Scatter and the Chord baseline.

Keys are integers in [0, 2^32).  A :class:`KeyRange` is a half-open arc
[lo, hi) that may wrap around zero; the arc with lo == hi is, by
convention, the *full* ring (a single group owning everything — the
state of a freshly bootstrapped system).
"""

from __future__ import annotations

from dataclasses import dataclass

try:
    # CPython's built-in SHA-1: hashlib would map OpenSSL's libcrypto
    # into the process (several MB of RSS) for this one digest.
    from _sha1 import sha1
except ImportError:  # pragma: no cover - interpreters without _sha1
    from hashlib import sha1

KEY_BITS = 32
KEY_SPACE = 1 << KEY_BITS


def hash_key(name: str) -> int:
    """Map a user-visible string key onto the ring (stable across runs)."""
    digest = sha1(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % KEY_SPACE


def ring_distance(a: int, b: int) -> int:
    """Clockwise distance from a to b."""
    return (b - a) % KEY_SPACE


@dataclass(frozen=True)
class KeyRange:
    """Half-open arc [lo, hi) on the ring; lo == hi means the full ring."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.lo < KEY_SPACE and 0 <= self.hi < KEY_SPACE):
            raise ValueError(f"range endpoints out of key space: {self}")
        if self.lo == self.hi and self.lo != 0:
            # Canonicalize: every full-ring arc is represented as (0, 0)
            # so equality and hashing behave.
            object.__setattr__(self, "lo", 0)
            object.__setattr__(self, "hi", 0)

    @staticmethod
    def full() -> "KeyRange":
        return KeyRange(0, 0)

    @property
    def is_full(self) -> bool:
        return self.lo == self.hi

    @property
    def wraps(self) -> bool:
        return self.lo > self.hi

    def contains(self, key: int) -> bool:
        key %= KEY_SPACE
        lo, hi = self.lo, self.hi
        if lo == hi:  # full ring
            return True
        if lo > hi:  # wraps around zero
            return key >= lo or key < hi
        return lo <= key < hi

    def size(self) -> int:
        if self.is_full:
            return KEY_SPACE
        return ring_distance(self.lo, self.hi)

    def midpoint(self) -> int:
        """The key halfway along the arc (used by naive splits)."""
        return (self.lo + self.size() // 2) % KEY_SPACE

    def split_at(self, key: int) -> tuple["KeyRange", "KeyRange"]:
        """Split into [lo, key) and [key, hi); key must lie strictly inside."""
        key %= KEY_SPACE
        if key == self.lo or not self.contains(key):
            raise ValueError(f"split point {key} not strictly inside {self}")
        return KeyRange(self.lo, key), KeyRange(key, self.hi)

    def merge(self, other: "KeyRange") -> "KeyRange":
        """Join with the adjacent arc that starts where this one ends."""
        if self.is_full or other.is_full:
            raise ValueError("cannot merge a full range")
        if self.hi != other.lo:
            raise ValueError(f"{self} and {other} are not adjacent")
        if other.hi == self.lo:
            return KeyRange.full()
        merged = KeyRange(self.lo, other.hi)
        if merged.size() != self.size() + other.size():
            raise ValueError(f"{self} + {other} overlap")
        return merged

    def intervals(self) -> list[tuple[int, int]]:
        """Non-wrapping [lo, hi) integer intervals covering this arc.

        Lets flat stores (which order keys linearly) enumerate an arc
        that wraps around zero.
        """
        if self.is_full:
            return [(0, KEY_SPACE)]
        if self.wraps:
            return [(self.lo, KEY_SPACE), (0, self.hi)]
        return [(self.lo, self.hi)]

    def __str__(self) -> str:
        return f"[{self.lo:#010x}, {self.hi:#010x})"
