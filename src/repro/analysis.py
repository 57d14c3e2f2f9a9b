"""Multi-seed statistics for simulation experiments.

Single runs of a stochastic workload are point estimates; these types
summarise a measurement across seeds (mean, spread) and say whether a
seed-paired speedup is robust — :func:`repro.sweep.aggregate.
compare_schedulers` builds them from sweep records.
:func:`format_table` lays out the text tables every report prints.
Pure Python (no numpy dependency on the hot path) so the core library
stays importable anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence


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
    """Streaming count/sum/min/max accumulator.

    Unlike :func:`summarise` it never stores samples; the fleet sweep
    report (:mod:`repro.obs.stream`) quotes its mean, min and max.
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

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "RunningStats":
        stats = cls()
        for value in values:
            stats.add(value)
        return stats


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

