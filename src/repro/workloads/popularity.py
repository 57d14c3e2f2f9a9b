"""Directory-popularity distributions.

Figure 4(a) uses uniform popularity; Figure 4(b) oscillates the number of
directories accessed between the full set and a sixteenth of it, to
exercise CoreTime's rebalancer.  A Zipf distribution is provided for
skewed-popularity experiments (hot objects, replication policy).
"""

from __future__ import annotations

import bisect
import random
from typing import List, Protocol

from repro.errors import ConfigError


class Popularity(Protocol):
    """Chooses which of ``n`` directories an operation targets."""

    n: int

    def pick(self, rng: random.Random, now: int) -> int:
        """Directory index for an operation issued at cycle ``now``."""
        ...


class UniformPopularity:
    """Every directory equally likely (Figure 4(a))."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigError("need at least one directory")
        self.n = n

    def pick(self, rng: random.Random, now: int) -> int:
        return rng.randrange(self.n)

    def __repr__(self) -> str:
        return f"UniformPopularity({self.n})"


class OscillatingPopularity:
    """Active set oscillates between ``n`` and ``n // shrink`` directories.

    §5: *"the number of directories accessed oscillates from the value
    represented on the x-axis to a sixteenth of that value.  We chose this
    benchmark to demonstrate the ability of CoreTime to rebalance
    objects."*

    The oscillation is a square wave with period ``period_cycles``.  With
    ``rotate=True`` the small active window also moves each period, so
    every contraction concentrates load on a *different* subset — a
    continuously rebalancing regime.
    """

    def __init__(self, n: int, period_cycles: int, shrink: int = 16,
                 rotate: bool = False) -> None:
        if n < 1:
            raise ConfigError("need at least one directory")
        if period_cycles < 2:
            raise ConfigError("period must be at least 2 cycles")
        if shrink < 1:
            raise ConfigError("shrink factor must be >= 1")
        self.n = n
        self.period_cycles = period_cycles
        self.shrink = shrink
        self.rotate = rotate
        self.small = max(1, n // shrink)

    def active_window(self, now: int) -> tuple:
        """(start, size) of the directory window active at ``now``."""
        phase = now // self.period_cycles
        if phase % 2 == 0:
            return 0, self.n
        if not self.rotate:
            return 0, self.small
        start = (int(phase // 2) * self.small) % self.n
        return start, self.small

    def pick(self, rng: random.Random, now: int) -> int:
        start, size = self.active_window(now)
        return (start + rng.randrange(size)) % self.n

    def __repr__(self) -> str:
        return (f"OscillatingPopularity({self.n}, period="
                f"{self.period_cycles}, shrink={self.shrink})")


class ZipfPopularity:
    """Zipf-distributed directory popularity (rank r has weight r^-s)."""

    def __init__(self, n: int, s: float = 1.0, seed: int = 0) -> None:
        if n < 1:
            raise ConfigError("need at least one directory")
        if s < 0:
            raise ConfigError("zipf exponent must be >= 0")
        self.n = n
        self.s = s
        # Shuffle ranks so hot directories are not address-adjacent.
        order = list(range(n))
        random.Random(seed).shuffle(order)
        self._order = order
        cdf: List[float] = []
        total = 0.0
        for rank in range(1, n + 1):
            total += rank ** -s
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def pick(self, rng: random.Random, now: int) -> int:
        point = rng.random() * self._total
        rank = bisect.bisect_left(self._cdf, point)
        if rank >= self.n:
            rank = self.n - 1
        return self._order[rank]

    def __repr__(self) -> str:
        return f"ZipfPopularity({self.n}, s={self.s})"


def popularity_for_spec(kind: str, n: int, *, zipf_s: float = 1.0,
                        seed: int = 0, period_cycles: int = 1_000_000,
                        rotate: bool = False) -> Popularity:
    """The one seeded construction path workload specs resolve through.

    Every workload spec stores popularity as plain fields (``kind``,
    ``zipf_s``, ``seed``, and for the oscillating wave a period and
    rotate flag); this helper maps those fields onto a sampler so the
    seeded implementations live here once — dirlookup, the synthetic
    object workload, the web server and every scenario draw from the
    same distributions instead of re-deriving the keyword plumbing
    per workload.
    """
    if kind == "uniform":
        return UniformPopularity(n)
    if kind == "oscillating":
        return OscillatingPopularity(n, period_cycles, rotate=rotate)
    if kind == "zipf":
        return ZipfPopularity(n, s=zipf_s, seed=seed)
    raise ConfigError(f"unknown popularity kind {kind!r}")
