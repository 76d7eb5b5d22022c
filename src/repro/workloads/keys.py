"""Key popularity distributions for storage workloads."""

from __future__ import annotations

import bisect
import random
from abc import ABC, abstractmethod

from repro.dht.ring import hash_key


class KeySpace(ABC):
    """A population of string keys with a sampling distribution."""

    def __init__(self, n_keys: int, prefix: str = "key") -> None:
        if n_keys < 1:
            raise ValueError("need at least one key")
        self.n_keys = n_keys
        self.prefix = prefix
        # index -> hash_key(key(index)), filled as keys are first drawn.
        self._ring_ids: dict[int, int] = {}

    def key(self, index: int) -> str:
        return f"{self.prefix}-{index}"

    def all_keys(self) -> list[str]:
        return [self.key(i) for i in range(self.n_keys)]

    @abstractmethod
    def sample_index(self, rng: random.Random) -> int:
        """Draw a key's index according to the popularity distribution."""

    def sample(self, rng: random.Random) -> str:
        """Draw a key according to the popularity distribution."""
        return self.key(self.sample_index(rng))

    def sample_ring_id(self, rng: random.Random) -> int:
        """Draw a key as :meth:`sample` does (same draws), hashed onto the ring.

        Each key is hashed once per key space; a client passes the
        ring id through unchanged.
        """
        index = self.sample_index(rng)
        ring_id = self._ring_ids.get(index)
        if ring_id is None:
            ring_id = self._ring_ids[index] = hash_key(self.key(index))
        return ring_id


class UniformKeys(KeySpace):
    """Every key equally likely (the paper's microbenchmark workload)."""

    def sample_index(self, rng: random.Random) -> int:
        return rng.randrange(self.n_keys)


class ZipfKeys(KeySpace):
    """Zipf(theta) popularity — skewed load for the load-balance policy.

    Rank r gets probability proportional to 1/r^theta.  theta around
    0.8–1.2 matches measured web/social access skew.
    """

    def __init__(self, n_keys: int, theta: float = 0.99, prefix: str = "key") -> None:
        super().__init__(n_keys, prefix)
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.theta = theta
        weights = [1.0 / ((rank + 1) ** theta) for rank in range(n_keys)]
        total = sum(weights)
        self._cdf: list[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def sample_index(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self._cdf, rng.random())
        return min(rank, self.n_keys - 1)
