"""Link latency models for the simulated network.

The paper evaluates both a cluster testbed (Emulab, uniform low latency)
and a wide-area deployment (PlanetLab, heavy-tailed heterogeneous
latency).  ``WanLatencyMatrix`` synthesizes the latter: each node gets a
random 2-D coordinate and pairwise one-way latency is distance-derived
plus log-normal jitter, which reproduces the latency spread that makes
the paper's leader-placement policy matter.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

# random.Random.lognormvariate(0.0, sigma) is exp(normalvariate(0.0, sigma)),
# a Kinderman-Monahan ratio-of-uniforms loop.  The two sample() methods
# below run that loop inline, step for step (same draws, same floats), to
# save two Python frames per message; tests/test_sim_network.py holds the
# two to identical output.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)
_exp = math.exp
_log = math.log


class LatencyModel(ABC):
    """One-way message latency between two named endpoints."""

    @abstractmethod
    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        """Return a one-way latency in seconds for a message src -> dst."""

    def expected(self, src: str, dst: str) -> float:
        """Best-effort expected latency (used by latency-aware policies)."""
        probe = random.Random(0)
        return sum(self.sample(src, dst, probe) for _ in range(8)) / 8


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``latency`` seconds."""

    def __init__(self, latency: float = 0.001) -> None:
        if latency <= 0:
            raise ValueError("latency must be positive")
        self.latency = latency

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        return self.latency

    def expected(self, src: str, dst: str) -> float:
        return self.latency


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from [lo, hi)."""

    def __init__(self, lo: float = 0.001, hi: float = 0.005) -> None:
        if not 0 < lo <= hi:
            raise ValueError("require 0 < lo <= hi")
        self.lo = lo
        self.hi = hi

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        return rng.uniform(self.lo, self.hi)

    def expected(self, src: str, dst: str) -> float:
        return (self.lo + self.hi) / 2


class LogNormalLatency(LatencyModel):
    """Heavy-tailed latency: ``base * lognormal(0, sigma)``.

    Models LAN/datacenter links where most messages are fast but a tail
    is slow (queueing, scheduling).
    """

    def __init__(self, base: float = 0.002, sigma: float = 0.4) -> None:
        if base <= 0 or sigma < 0:
            raise ValueError("require base > 0 and sigma >= 0")
        self.base = base
        self.sigma = sigma

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        # base * rng.lognormvariate(0.0, sigma), inlined (see _NV_MAGICCONST).
        random = rng.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -_log(u2):
                return self.base * _exp(z * self.sigma)

    def expected(self, src: str, dst: str) -> float:
        return self.base * math.exp(self.sigma**2 / 2)


class WanLatencyMatrix(LatencyModel):
    """Coordinate-derived pairwise latency with log-normal jitter.

    Each endpoint name is lazily assigned a point in a ``span`` x ``span``
    plane (units: seconds of one-way latency across the plane).  Base
    latency between two endpoints is Euclidean distance plus a floor;
    samples multiply the base by log-normal jitter.  Assignment is
    deterministic in the endpoint name and the model seed, so two
    simulations place the same nodes at the same coordinates.
    """

    def __init__(
        self,
        seed: int = 0,
        span: float = 0.08,
        floor: float = 0.002,
        jitter_sigma: float = 0.2,
        sites: int = 0,
        site_spread: float = 0.004,
    ) -> None:
        self.seed = seed
        self.span = span
        self.floor = floor
        self.jitter_sigma = jitter_sigma
        self.sites = sites
        self.site_spread = site_spread
        self._coords: dict[str, tuple[float, float]] = {}

    def coord(self, name: str) -> tuple[float, float]:
        if name not in self._coords:
            rng = random.Random(f"{self.seed}/{name}")
            if self.sites > 0:
                # Clustered topology (PlanetLab-like): each endpoint sits
                # near one of a few sites, so intra-site latency is small
                # and inter-site latency dominates.
                site = rng.randrange(self.sites)
                site_rng = random.Random(f"{self.seed}/site/{site}")
                sx = site_rng.uniform(0, self.span)
                sy = site_rng.uniform(0, self.span)
                self._coords[name] = (
                    sx + rng.uniform(-self.site_spread, self.site_spread),
                    sy + rng.uniform(-self.site_spread, self.site_spread),
                )
            else:
                self._coords[name] = (rng.uniform(0, self.span), rng.uniform(0, self.span))
        return self._coords[name]

    def base_latency(self, src: str, dst: str) -> float:
        if src == dst:
            return self.floor
        (x1, y1), (x2, y2) = self.coord(src), self.coord(dst)
        return self.floor + math.hypot(x2 - x1, y2 - y1)

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        # base * rng.lognormvariate(0.0, jitter_sigma), inlined (see _NV_MAGICCONST).
        random = rng.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -_log(u2):
                return self.base_latency(src, dst) * _exp(z * self.jitter_sigma)

    def expected(self, src: str, dst: str) -> float:
        return self.base_latency(src, dst) * math.exp(self.jitter_sigma**2 / 2)
