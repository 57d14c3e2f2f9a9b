"""The metrics registry: counters, pulled gauges and fixed-bucket histograms.

Publishers either push (``counter.inc()``, ``histogram.observe(v)``) or
register a pull callback (:meth:`MetricsRegistry.gauge_fn`), which costs
nothing until a snapshot is taken — the right shape for values the
simulator already tracks (cache evictions, run-queue depth maxima, table
sizes).

Instruments are get-or-create by name so several simulators can share a
registry across runs (a benchmark sweep accumulates into the same
histograms).  Names follow ``component.metric`` dotted style.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: Default cycle buckets for operation latency (a directory lookup on the
#: scaled machine lands mid-range; lock storms push the right tail).
OP_LATENCY_BUCKETS: Tuple[int, ...] = (
    100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_600, 51_200,
    102_400, 204_800)

#: Buckets for one migration's in-flight cycles (migration_cost plus
#: poll-interval rounding).
MIGRATION_BUCKETS: Tuple[int, ...] = (
    50, 100, 250, 500, 1_000, 2_000, 4_000, 8_000)

#: Buckets for run-queue depth observed at each enqueue.
QUEUE_DEPTH_BUCKETS: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64)


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class HistogramSummary:
    """Frozen summary of a histogram (what :class:`RunResult` carries)."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str, count: int, total: float,
                 minimum: Optional[float], maximum: Optional[float],
                 buckets: Tuple[Tuple[float, int], ...]) -> None:
        self.name = name
        self.count = count
        self.total = total
        self.min = minimum
        self.max = maximum
        #: ``(upper_bound, cumulative_count)`` pairs; the final bound is
        #: ``inf``.
        self.buckets = buckets

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> Optional[float]:
        """Upper bound of the bucket containing the ``p``-quantile.

        Bucket-resolution estimate: the true value lies at or below the
        returned bound.  None when the histogram is empty.
        """
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"percentile {p} outside [0, 1]")
        if not self.count:
            return None
        rank = p * self.count
        for bound, cumulative in self.buckets:
            if cumulative >= rank:
                return bound if bound != float("inf") else self.max
        return self.max

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "buckets": [[bound, cumulative]
                        for bound, cumulative in self.buckets],
        }

    def __repr__(self) -> str:
        return (f"HistogramSummary({self.name}: n={self.count}, "
                f"mean={self.mean:.0f}, p95={self.percentile(0.95)})")


class Histogram:
    """Fixed-bucket histogram with an overflow bucket.

    ``bounds`` are inclusive upper edges; an observation ``v`` lands in
    the first bucket with ``v <= bound``, or the overflow bucket past the
    last bound.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "_min",
                 "_max")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ConfigError(f"histogram {name}: needs at least one bucket")
        ordered = tuple(bounds)
        if any(b >= a for b, a in zip(ordered, ordered[1:])):
            raise ConfigError(
                f"histogram {name}: bounds must strictly increase")
        self.name = name
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into self (in place); returns self.

        Fixed buckets make two partial histograms over disjoint
        observation sets combine exactly — the property the streaming
        profiler's merge law (:mod:`repro.obs.stream`) relies on.  The
        bounds must match.
        """
        if other.bounds != self.bounds:
            raise ConfigError(
                f"histogram {self.name}: cannot merge with different "
                f"buckets ({other.name})")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.total += other.total
        if other._min is not None and (self._min is None
                                       or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None
                                       or other._max > self._max):
            self._max = other._max
        return self

    def summary(self) -> HistogramSummary:
        cumulative = 0
        pairs: List[Tuple[float, int]] = []
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            pairs.append((bound, cumulative))
        pairs.append((float("inf"), cumulative + self.counts[-1]))
        return HistogramSummary(self.name, self.count, self.total,
                                self._min, self._max, tuple(pairs))

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:.0f})"


class MetricsRegistry:
    """Named instruments, get-or-create, plus pull-style gauge callbacks."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauge_fns: Dict[str, Callable[[], float]] = {}

    # ------------------------------------------------------------------
    # instrument access
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            self._check_fresh(name)
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str,
                  bounds: Sequence[float]) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            self._check_fresh(name)
            histogram = self._histograms[name] = Histogram(name, bounds)
        elif tuple(bounds) != histogram.bounds:
            raise ConfigError(
                f"histogram {name} re-registered with different buckets")
        return histogram

    def gauge_fn(self, name: str, fn: Callable[[], float]) -> None:
        """Register a pull callback; evaluated only at snapshot time.

        Re-registering replaces the callback (each attached simulator
        reports the current machine).
        """
        if name in self._counters or name in self._histograms:
            raise ConfigError(f"metric name {name!r} already registered")
        self._gauge_fns[name] = fn

    def _check_fresh(self, name: str) -> None:
        owners = (self._counters, self._histograms, self._gauge_fns)
        if sum(name in owner for owner in owners):
            raise ConfigError(
                f"metric name {name!r} already registered as another type")

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as primitives (JSON-ready)."""
        data: Dict[str, Any] = {}
        for name, counter in self._counters.items():
            data[name] = counter.value
        for name, fn in self._gauge_fns.items():
            data[name] = fn()
        for name, histogram in self._histograms.items():
            data[name] = histogram.summary().as_dict()
        return data
