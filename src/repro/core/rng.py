"""Seeded randomness for reproducible simulations.

Every stochastic component (arrival processes, service-time samplers, ECMP
hashing, measurement-noise models) draws from a :class:`RandomSource` so that
a single root seed makes an entire simulation run bit-reproducible.  Streams
are derived by name, so adding a new consumer never perturbs the draws seen
by existing ones — important when comparing policies on "the same" arrivals.
"""

from __future__ import annotations

import zlib
from typing import Optional

import numpy as np


class RandomSource:
    """A named, seeded random stream factory.

    ``RandomSource(seed)`` is the root; ``root.stream("arrivals")`` derives an
    independent :class:`numpy.random.Generator` keyed by the stream name.  The
    same ``(seed, name)`` pair always yields the same sequence.
    """

    def __init__(self, seed: Optional[int] = 0):
        if seed is None:
            seed = 0
        self.seed = int(seed)

    def stream(self, name: str) -> np.random.Generator:
        """Return an independent generator derived from ``(seed, name)``."""
        digest = zlib.crc32(name.encode("utf-8"))
        return np.random.default_rng(np.random.SeedSequence([self.seed, digest]))

    def spawn(self, name: str) -> "RandomSource":
        """Derive a child source (e.g. one per server) from this one."""
        digest = zlib.crc32(name.encode("utf-8"))
        return RandomSource((self.seed * 1_000_003 + digest) % (2**63))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomSource(seed={self.seed})"


def exponential(rng: np.random.Generator, rate: float) -> float:
    """Sample an exponential inter-arrival/service time with the given rate.

    Raises ValueError unless the rate is positive — a rate of zero would
    silently produce infinite times, and a NaN rate NaN times, either of
    which hangs a simulation.
    """
    if not rate > 0:
        raise ValueError(f"exponential rate must be positive, got {rate}")
    return float(rng.exponential(1.0 / rate))
