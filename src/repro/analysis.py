"""Multi-seed statistics for simulation experiments.

Single runs of a stochastic workload are point estimates; this module
runs an experiment across seeds and reports mean, spread, and whether a
speedup is robust.  :func:`format_table` lays out the text tables every
report prints.  Pure Python (no numpy dependency on the hot path) so
the core library stays importable anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence


@dataclass(frozen=True)
class SampleStats:
    """Summary of repeated measurements."""

    n: int
    mean: float
    stdev: float
    minimum: float
    maximum: float

    @property
    def stderr(self) -> float:
        return self.stdev / math.sqrt(self.n) if self.n > 1 else 0.0

    def ci95(self) -> tuple:
        """~95% confidence interval (normal approximation)."""
        half = 1.96 * self.stderr
        return (self.mean - half, self.mean + half)

    def __str__(self) -> str:
        low, high = self.ci95()
        return (f"{self.mean:,.1f} +/- {1.96 * self.stderr:,.1f} "
                f"(n={self.n}, range {self.minimum:,.1f}"
                f"..{self.maximum:,.1f})")


@dataclass
class RunningStats:
    """Streaming, mergeable count/sum/min/max accumulator.

    Unlike :func:`summarise` it never stores samples, so streaming
    reducers (:mod:`repro.obs.stream`) can keep one per key at constant
    memory; two partial aggregates over disjoint sample sets fold
    exactly with :meth:`merge` (integer sums stay integers, and min/max
    are order-free).  No variance — a mergeable stdev needs Welford-
    style moments and none of the streaming reports quote one.
    """

    n: int = 0
    total: float = 0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def add(self, value: float) -> None:
        self.n += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Fold ``other`` into self (in place); returns self."""
        self.n += other.n
        self.total += other.total
        if other.minimum is not None and (self.minimum is None
                                          or other.minimum < self.minimum):
            self.minimum = other.minimum
        if other.maximum is not None and (self.maximum is None
                                          or other.maximum > self.maximum):
            self.maximum = other.maximum
        return self

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "RunningStats":
        stats = cls()
        for value in values:
            stats.add(value)
        return stats

    def state(self) -> dict:
        return {"n": self.n, "total": self.total,
                "min": self.minimum, "max": self.maximum}

    @classmethod
    def from_state(cls, state: dict) -> "RunningStats":
        return cls(n=state["n"], total=state["total"],
                   minimum=state["min"], maximum=state["max"])


def summarise(values: Sequence[float]) -> SampleStats:
    if not values:
        raise ValueError("no samples")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        variance = 0.0
    return SampleStats(n=n, mean=mean, stdev=math.sqrt(variance),
                       minimum=min(values), maximum=max(values))


def run_seeds(experiment: Callable[[int], float],
              seeds: Sequence[int]) -> SampleStats:
    """Run ``experiment(seed)`` for every seed and summarise."""
    return summarise([experiment(seed) for seed in seeds])


@dataclass(frozen=True)
class SpeedupResult:
    """Comparison of two measured configurations across shared seeds."""

    baseline: SampleStats
    candidate: SampleStats
    per_seed_ratios: List[float]

    @property
    def mean_speedup(self) -> float:
        ratios = self.per_seed_ratios
        return sum(ratios) / len(ratios)

    @property
    def robust(self) -> bool:
        """True when the candidate wins on every seed."""
        return all(ratio > 1.0 for ratio in self.per_seed_ratios)

    def __str__(self) -> str:
        flag = "robust" if self.robust else "mixed"
        return (f"speedup {self.mean_speedup:.2f}x ({flag}; "
                f"ratios {['%.2f' % r for r in self.per_seed_ratios]})")


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> str:
    """Right-aligned text table: headers, a dash rule, one line per row."""
    widths = [max([len(headers[i])] + [len(row[i]) for row in rows])
              for i in range(len(headers))]
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width)
                         for cell, width in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def compare(baseline: Callable[[int], float],
            candidate: Callable[[int], float],
            seeds: Sequence[int]) -> SpeedupResult:
    """Paired comparison: each seed measured under both configurations."""
    base_values = [baseline(seed) for seed in seeds]
    cand_values = [candidate(seed) for seed in seeds]
    ratios = [c / b if b else float("inf")
              for b, c in zip(base_values, cand_values)]
    return SpeedupResult(summarise(base_values), summarise(cand_values),
                         ratios)
