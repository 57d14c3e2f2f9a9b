"""Single-pass, constant-memory streaming profiles over event streams.

Every report of a recording — ``repro-analyze report``, ``folded``,
``diff``, ``profile``, ``merge`` and ``tail``, and the profile a
:class:`Recorder` feeds as it writes one — is a :class:`Profile`: one
:class:`RunProfile` section per :class:`~repro.obs.events.RunMarker`,
each a set of incremental *reducers* that fold one event at a time and
never look back:

* memory is proportional to the number of runs times the distinct
  objects, cores, locks and threads of each — never to the number of
  events;
* every reducer's partial state is serializable and *mergeable*, so a
  distributed sweep's workers can each emit a per-shard
  :class:`Profile` and the coordinator folds them fleet-wide
  (``repro-analyze merge``) with the algebraic law
  ``merge(P(a), P(b)) == P(a + b)`` for any split of one stream;
* the occupancy timeline, which is inherently per-event, degrades
  gracefully through deterministic bottom-k sampling (keyed hashing, so
  any partition of the stream prunes to the same sample).

Runs that share a label stay separate sections: every simulator run
restarts at cycle 0, so one section summing two runs over one run's
horizon would show cores more than 100% busy.

:class:`Recorder`, the one writer of recording files, feeds its profile
each event it writes, as the event is published.
"""

from __future__ import annotations

import copy
import heapq
import json
import math
import os
import random
from dataclasses import asdict
from hashlib import blake2b
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple, Type)

from repro.analysis import SampleStats, summarise
from repro.errors import ConfigError, ProfileError
from repro.obs import Observability
from repro.obs.events import (CONTROL_EVENTS, CacheEvicted,
                              CacheInvalidated, Event,
                              LeaseExpired, LockContended,
                              MigrationStarted, ObjectAssigned,
                              ObjectMoved, OperationFinished,
                              OperationStarted, RunMarker,
                              SweepCaseFailed, SweepCaseFinished,
                              SweepCaseStarted, WorkerJoined, WorkerLost)
from repro.obs.export import (SCHEMA_VERSION, jsonl_meta_line, open_text,
                              write_events)
from repro.obs.metrics import (MIGRATION_BUCKETS, OP_LATENCY_BUCKETS,
                               Histogram)
from repro.obs.profile import (CoreBreakdown, LockStat, MetricDelta,
                               ObjectCost, iter_jsonl, render_core_breakdown,
                               render_lock_table, render_migration_matrix,
                               render_object_costs)

__all__ = [
    "DEFAULT_SAMPLE_CAPACITY", "NO_OPERATION", "PROFILE_FORMAT_VERSION",
    "SAMPLED_METRICS", "Moments", "ObjectCostsReducer", "CoreBreakdownReducer",
    "MigrationMatrixReducer", "LockTableReducer", "LatencyReducer",
    "OccupancyReducer", "SweepReducer", "RunProfile", "Profile",
    "StreamProfiler", "Recorder", "diff_sections", "load_profile",
    "merge_profiles", "synthesize",
]

#: Pseudo-object charged for migrations of threads outside any
#: operation.
NO_OPERATION = "(no operation)"

#: Maximum distinct occupancy changes a profile keeps before the
#: deterministic bottom-k sampler starts pruning.  The default of every
#: :class:`RunProfile`, so every report of a stream prunes identically.
DEFAULT_SAMPLE_CAPACITY = 65_536

#: Version of the :class:`Profile` JSON artifact.  Version 3 added what
#: a diff reads (per-operation moments, eviction and invalidation
#: totals); version 1 folded runs that shared a label.
PROFILE_FORMAT_VERSION = 3

#: The per-operation metrics a diff samples, named as its rows: cycles,
#: then the counter deltas of operations that ran on one core.
SAMPLED_METRICS = ("op latency (cycles/op)", "dram loads/op",
                   "remote hits/op", "mem-stall (cycles/op)",
                   "lock-spin (cycles/op)")

#: Events a :class:`Recorder` holds between two writes.
RECORD_CHUNK = 1024

#: Sentinel distinguishing "thread never seen" from "thread known to be
#: outside any operation" in :class:`ObjectCostsReducer`.
_UNSEEN = object()

Handler = Callable[[Any], None]


# ---------------------------------------------------------------------------
# reducers
#
# The reducer contract (DESIGN.md §12): ``handlers()`` maps event types
# to bound methods, each folding one event (``RunProfile`` dispatches
# through them), ``merge_from`` folds another reducer's partial state
# (stream concatenation), ``state()``/``from_state()`` round-trip through
# JSON primitives.
# ---------------------------------------------------------------------------

class Moments:
    """Exact moments of an integer sample: count, sum, sum of squares,
    minimum and maximum (the last two meaningful once ``n`` is
    positive).  They are all :class:`~repro.analysis.SampleStats` needs,
    and they merge exactly, so a diff needs no per-event samples."""

    __slots__ = ("n", "total", "squares", "minimum", "maximum")

    def __init__(self, n: int = 0, total: int = 0, squares: int = 0,
                 minimum: int = 0, maximum: int = 0) -> None:
        self.n, self.total, self.squares = n, total, squares
        self.minimum, self.maximum = minimum, maximum

    def add(self, value: int) -> None:
        if not self.n:
            self.minimum = self.maximum = value
        elif value < self.minimum:
            self.minimum = value
        elif value > self.maximum:
            self.maximum = value
        self.n += 1
        self.total += value
        self.squares += value * value

    def merge_from(self, other: "Moments") -> None:
        if other.n:
            self.minimum = (min(self.minimum, other.minimum) if self.n
                            else other.minimum)
            self.maximum = (max(self.maximum, other.maximum) if self.n
                            else other.maximum)
            self.n += other.n
            self.total += other.total
            self.squares += other.squares

    def stats(self) -> SampleStats:
        """The summary of a non-empty sample; its variance is the exact
        one of the integer moments, rounded once."""
        n = self.n
        variance = ((n * self.squares - self.total * self.total)
                    / (n * (n - 1)) if n > 1 else 0.0)
        return SampleStats(n=n, mean=self.total / n,
                           stdev=math.sqrt(variance),
                           minimum=self.minimum, maximum=self.maximum)

    def state(self) -> List[int]:
        return [getattr(self, name) for name in self.__slots__]


class ObjectCostsReducer:
    """Per-object cycles/misses/migrations, one pass, mergeable.

    A migration is charged to the object of the operation in progress
    on the migrating thread; a migration outside any operation is
    nobody's fault and lands on the pseudo-object ``(no operation)``.
    The only stream-order-dependent part of the attribution is
    "which object was the migrating thread operating on?".  The reducer
    keeps ``known`` (thread -> object, or None for "known to be outside
    any operation") plus ``pending`` for migrations seen before the
    shard recorded any operation event for that thread; a merge resolves
    the right shard's pending migrations against the left shard's final
    thread states, so any split of a stream folds to the same costs.

    The same handlers keep, run-wide, what a diff compares: the moments
    of :data:`SAMPLED_METRICS` and all evictions and invalidations.
    """

    def __init__(self) -> None:
        self.costs: Dict[str, ObjectCost] = {}
        self.known: Dict[str, Optional[str]] = {}
        self.pending: Dict[str, List[int]] = {}
        self.samples = tuple(Moments() for _ in SAMPLED_METRICS)
        self.evictions = 0
        self.invalidations = 0

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {OperationStarted: self._op_start,
                OperationFinished: self._op_end,
                MigrationStarted: self._migrate,
                CacheEvicted: self._evict,
                CacheInvalidated: self._invalidate}

    def _cost(self, name: str) -> ObjectCost:
        entry = self.costs.get(name)
        if entry is None:
            entry = self.costs[name] = ObjectCost(name)
        return entry

    def _op_start(self, event: OperationStarted) -> None:
        self.known[event.thread] = event.obj

    def _op_end(self, event: OperationFinished) -> None:
        entry = self._cost(event.obj)
        entry.ops += 1
        entry.cycles += event.cycles
        cycles, dram, remote, mem_stall, spin = self.samples
        cycles.add(event.cycles)
        if event.dram is not None:
            entry.attributed_ops += 1
            entry.dram_loads += event.dram
            entry.remote_hits += event.remote
            entry.mem_stall_cycles += event.mem_stall
            entry.spin_cycles += event.spin
            dram.add(event.dram)
            remote.add(event.remote)
            mem_stall.add(event.mem_stall)
            spin.add(event.spin)
        self.known[event.thread] = None

    def _migrate(self, event: MigrationStarted) -> None:
        flight = event.arrive_ts - event.ts
        state = self.known.get(event.thread, _UNSEEN)
        if state is _UNSEEN:
            entry = self.pending.get(event.thread)
            if entry is None:
                self.pending[event.thread] = [1, flight]
            else:
                entry[0] += 1
                entry[1] += flight
            return
        cost = self._cost(state if state is not None else NO_OPERATION)
        cost.migrations += 1
        cost.migration_cycles += flight

    def _evict(self, event: CacheEvicted) -> None:
        self.evictions += 1
        if event.obj is not None:
            self._cost(event.obj).evictions += 1

    def _invalidate(self, event: CacheInvalidated) -> None:
        self.invalidations += event.copies
        if event.obj is not None:
            self._cost(event.obj).invalidations += event.copies

    def merge_from(self, other: "ObjectCostsReducer") -> None:
        for mine, theirs in zip(self.samples, other.samples):
            mine.merge_from(theirs)
        self.evictions += other.evictions
        self.invalidations += other.invalidations
        for name, cost in other.costs.items():
            mine = self.costs.get(name)
            if mine is None:
                self.costs[name] = copy.copy(cost)
                continue
            for field in ("ops", "cycles", "attributed_ops", "dram_loads",
                          "remote_hits", "mem_stall_cycles", "spin_cycles",
                          "migrations", "migration_cycles", "evictions",
                          "invalidations"):
                setattr(mine, field,
                        getattr(mine, field) + getattr(cost, field))
        # Resolve the right shard's pre-first-op migrations against our
        # final thread states *before* adopting its states.
        for thread, (migrations, cycles) in other.pending.items():
            state = self.known.get(thread, _UNSEEN)
            if state is _UNSEEN:
                entry = self.pending.get(thread)
                if entry is None:
                    self.pending[thread] = [migrations, cycles]
                else:
                    entry[0] += migrations
                    entry[1] += cycles
                continue
            cost = self._cost(state if state is not None else NO_OPERATION)
            cost.migrations += migrations
            cost.migration_cycles += cycles
        self.known.update(other.known)

    def result(self) -> List[ObjectCost]:
        """Sorted :class:`~repro.obs.profile.ObjectCost` list.

        Most expensive first (by ``total_cycles``).  Leftover pending
        migrations (threads that never recorded an operation event
        anywhere in the stream) resolve to ``(no operation)``.  The
        reducer state itself is left untouched so rendering twice — or
        rendering mid-stream — is safe.
        """
        costs = {name: copy.copy(cost) for name, cost in self.costs.items()}
        if self.pending:
            entry = costs.get(NO_OPERATION)
            if entry is None:
                entry = costs[NO_OPERATION] = ObjectCost(NO_OPERATION)
            for migrations, cycles in self.pending.values():
                entry.migrations += migrations
                entry.migration_cycles += cycles
        return sorted(costs.values(),
                      key=lambda c: (-c.total_cycles, c.name))

    def state(self) -> Dict[str, Any]:
        return {"costs": {name: asdict(cost)
                          for name, cost in self.costs.items()},
                "known": dict(self.known),
                "pending": {thread: list(entry)
                            for thread, entry in self.pending.items()},
                "samples": [moments.state() for moments in self.samples],
                "evictions": self.evictions,
                "invalidations": self.invalidations}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "ObjectCostsReducer":
        reducer = cls()
        for name, fields in state["costs"].items():
            reducer.costs[name] = ObjectCost(**fields)
        reducer.known.update(state["known"])
        for thread, entry in state["pending"].items():
            reducer.pending[thread] = list(entry)
        reducer.samples = tuple(Moments(*moments)
                                for moments in state["samples"])
        reducer.evictions = state["evictions"]
        reducer.invalidations = state["invalidations"]
        return reducer


class CoreBreakdownReducer:
    """Per-core busy/stall/spin/migrating counts; horizon applied late."""

    #: index layout of one core's count vector
    _FIELDS = ("ops", "busy", "mem_stall", "spin", "migrating",
               "unplaced_ops", "unplaced_cycles")

    def __init__(self) -> None:
        self.cores: Dict[int, List[int]] = {}

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {OperationFinished: self._op_end,
                MigrationStarted: self._migrate}

    def _entry(self, core: int) -> List[int]:
        entry = self.cores.get(core)
        if entry is None:
            entry = self.cores[core] = [0] * len(self._FIELDS)
        return entry

    def _op_end(self, event: OperationFinished) -> None:
        entry = self._entry(event.core)
        entry[0] += 1
        if event.mem_stall is not None:
            entry[1] += event.cycles
            entry[2] += event.mem_stall
            entry[3] += event.spin
        else:
            entry[5] += 1
            entry[6] += event.cycles

    def _migrate(self, event: MigrationStarted) -> None:
        self._entry(event.core)[4] += event.arrive_ts - event.ts

    def merge_from(self, other: "CoreBreakdownReducer") -> None:
        for core, counts in other.cores.items():
            entry = self._entry(core)
            for index, value in enumerate(counts):
                entry[index] += value

    def result(self, horizon: int) -> List[CoreBreakdown]:
        breakdowns = []
        for core in sorted(self.cores):
            counts = self.cores[core]
            item = CoreBreakdown(core, horizon)
            for index, field in enumerate(self._FIELDS):
                setattr(item, field, counts[index])
            breakdowns.append(item)
        return breakdowns

    def state(self) -> Dict[str, List[int]]:
        return {str(core): list(counts)
                for core, counts in self.cores.items()}

    @classmethod
    def from_state(cls, state: Dict[str, List[int]]) -> "CoreBreakdownReducer":
        reducer = cls()
        for core, counts in state.items():
            reducer.cores[int(core)] = list(counts)
        return reducer


class MigrationMatrixReducer:
    """``(from_core, to_core) -> count``, trivially mergeable."""

    def __init__(self) -> None:
        self.matrix: Dict[Tuple[int, int], int] = {}

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {MigrationStarted: self._migrate}

    def _migrate(self, event: MigrationStarted) -> None:
        key = (event.core, event.target)
        self.matrix[key] = self.matrix.get(key, 0) + 1

    def merge_from(self, other: "MigrationMatrixReducer") -> None:
        for key, count in other.matrix.items():
            self.matrix[key] = self.matrix.get(key, 0) + count

    def result(self) -> Dict[Tuple[int, int], int]:
        return dict(self.matrix)

    def state(self) -> Dict[str, int]:
        return {f"{source}>{target}": count
                for (source, target), count in self.matrix.items()}

    @classmethod
    def from_state(cls, state: Dict[str, int]) -> "MigrationMatrixReducer":
        reducer = cls()
        for key, count in state.items():
            source, target = key.split(">")
            reducer.matrix[(int(source), int(target))] = count
        return reducer


class LockTableReducer:
    """Per-lock contention counts, thread sets and per-core splits."""

    def __init__(self) -> None:
        #: lock name -> [contended_acquires, thread set, per-core dict]
        self.locks: Dict[str, Tuple[List[int], Set[str],
                                    Dict[int, int]]] = {}

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {LockContended: self._contended}

    def _entry(self, name: str) -> Tuple[List[int], Set[str],
                                         Dict[int, int]]:
        entry = self.locks.get(name)
        if entry is None:
            entry = self.locks[name] = ([0], set(), {})
        return entry

    def _contended(self, event: LockContended) -> None:
        counts, threads, per_core = self._entry(event.lock)
        counts[0] += 1
        threads.add(event.thread)
        per_core[event.core] = per_core.get(event.core, 0) + 1

    def merge_from(self, other: "LockTableReducer") -> None:
        for name, (counts, threads, per_core) in other.locks.items():
            mine = self._entry(name)
            mine[0][0] += counts[0]
            mine[1].update(threads)
            for core, count in per_core.items():
                mine[2][core] = mine[2].get(core, 0) + count

    def result(self) -> List[LockStat]:
        stats = []
        for name, (counts, threads, per_core) in self.locks.items():
            stats.append(LockStat(name, contended_acquires=counts[0],
                                  threads=set(threads),
                                  per_core=dict(per_core)))
        return sorted(stats, key=lambda s: (-s.contended_acquires, s.name))

    def state(self) -> Dict[str, Any]:
        return {name: {"contended": counts[0],
                       "threads": sorted(threads),
                       "per_core": {str(core): count
                                    for core, count in per_core.items()}}
                for name, (counts, threads, per_core) in self.locks.items()}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "LockTableReducer":
        reducer = cls()
        for name, data in state.items():
            reducer.locks[name] = (
                [data["contended"]], set(data["threads"]),
                {int(core): count
                 for core, count in data["per_core"].items()})
        return reducer


def _histogram_state(histogram: Histogram) -> Dict[str, Any]:
    return {"bounds": list(histogram.bounds),
            "counts": list(histogram.counts),
            "count": histogram.count,
            "total": histogram.total,
            "min": histogram._min,
            "max": histogram._max}


def _histogram_from_state(name: str, state: Dict[str, Any]) -> Histogram:
    histogram = Histogram(name, state["bounds"])
    histogram.counts = list(state["counts"])
    histogram.count = state["count"]
    histogram.total = state["total"]
    histogram._min = state["min"]
    histogram._max = state["max"]
    return histogram


class LatencyReducer:
    """Log-bucket latency histograms (reuses :mod:`repro.obs.metrics`).

    One histogram of operation cycles (``OP_LATENCY_BUCKETS``) and one
    of migration in-flight cycles (``MIGRATION_BUCKETS``); fixed buckets
    make two partial histograms fold exactly.
    """

    def __init__(self) -> None:
        self.op = Histogram("stream.op_cycles", OP_LATENCY_BUCKETS)
        self.flight = Histogram("stream.migration_flight",
                                MIGRATION_BUCKETS)

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {OperationFinished: self._op_end,
                MigrationStarted: self._migrate}

    def _op_end(self, event: OperationFinished) -> None:
        self.op.observe(event.cycles)

    def _migrate(self, event: MigrationStarted) -> None:
        self.flight.observe(event.arrive_ts - event.ts)

    def merge_from(self, other: "LatencyReducer") -> None:
        self.op.merge(other.op)
        self.flight.merge(other.flight)

    def render(self) -> Optional[str]:
        rows = []
        for title, histogram in (("op latency (cycles)", self.op),
                                 ("migration flight (cycles)",
                                  self.flight)):
            if not histogram.count:
                continue
            summary = histogram.summary()
            p50 = summary.percentile(0.50)
            p95 = summary.percentile(0.95)
            rows.append(f"  {title:<26} n={summary.count:,}  "
                        f"mean={summary.mean:,.0f}  p50<={p50:,.0f}  "
                        f"p95<={p95:,.0f}  max={summary.max:,.0f}")
        if not rows:
            return None
        return ("Latency histograms (log buckets; percentiles are "
                "bucket upper bounds)\n" + "\n".join(rows))

    def state(self) -> Dict[str, Any]:
        return {"op": _histogram_state(self.op),
                "flight": _histogram_state(self.flight)}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "LatencyReducer":
        reducer = cls()
        reducer.op = _histogram_from_state("stream.op_cycles", state["op"])
        reducer.flight = _histogram_from_state("stream.migration_flight",
                                               state["flight"])
        return reducer


class OccupancyReducer:
    """Occupancy timeline via deterministic bottom-k change sampling.

    The timeline only needs cumulative assignment counts at bucket
    edges, so its sufficient statistic is the multiset of
    ``(ts, core, delta)`` changes — order-free, hence mergeable.  When
    distinct changes exceed ``capacity``, the reducer keeps the k
    changes with the smallest keyed hash (bottom-k): a pure function of
    content, so any partition of the stream prunes to the same sample
    and ``merge == whole-stream`` still holds.  Counts of kept changes
    stay exact (a change pruned once can never re-enter the bottom-k).
    """

    def __init__(self, capacity: int = DEFAULT_SAMPLE_CAPACITY,
                 seed: int = 0) -> None:
        self.capacity = capacity
        self.seed = seed
        self.changes: Dict[Tuple[int, int, int], int] = {}
        self.total = 0
        self.max_core = -1
        self.change_horizon = 0
        self.pruned = False
        # Min-heap over *inverted* priorities, so the root is always the
        # worst (largest-priority) kept change; admission is then O(1)
        # and eviction O(log capacity) instead of a full re-sort per
        # distinct change past capacity.
        self._heap: List[Tuple[bytes, Tuple[int, int, int],
                               Tuple[int, int, int]]] = []

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {ObjectAssigned: self._assign, ObjectMoved: self._move}

    def _add(self, ts: int, core: int, delta: int) -> None:
        key = (ts, core, delta)
        self.total += 1
        if ts > self.change_horizon:
            self.change_horizon = ts
        if core > self.max_core:
            self.max_core = core
        if key in self.changes:
            self.changes[key] += 1
            return
        entry = self._heap_entry(key)
        if len(self.changes) >= self.capacity:
            self.pruned = True
            if entry <= self._heap[0]:
                # Worse priority than the worst kept change.  It can
                # never re-enter the bottom-k (admitting new keys only
                # lowers the threshold), so the skip is final — which is
                # exactly why kept counts stay exact.
                return
            dropped = heapq.heappushpop(self._heap, entry)
            del self.changes[dropped[2]]
        else:
            heapq.heappush(self._heap, entry)
        self.changes[key] = 1

    def _assign(self, event: ObjectAssigned) -> None:
        self._add(event.ts, event.core, +1)

    def _move(self, event: ObjectMoved) -> None:
        self._add(event.ts, event.core, -1)
        self._add(event.ts, event.target, +1)

    def _priority(self, key: Tuple[int, int, int]) -> Tuple[bytes,
                                                            Tuple[int, int,
                                                                  int]]:
        digest = blake2b(f"{self.seed}:{key[0]}:{key[1]}:{key[2]}"
                         .encode("ascii"), digest_size=8).digest()
        return (digest, key)

    def _heap_entry(self, key: Tuple[int, int, int]) -> Tuple[
            bytes, Tuple[int, int, int], Tuple[int, int, int]]:
        # Byte-wise complement and component negation both strictly
        # reverse the order, turning heapq's min-heap into a max-heap
        # over (digest, key) priorities.
        digest, _ = self._priority(key)
        return (bytes(255 - byte for byte in digest),
                (-key[0], -key[1], -key[2]), key)

    def _rebuild_heap(self) -> None:
        self._heap = [self._heap_entry(key) for key in self.changes]
        heapq.heapify(self._heap)

    def merge_from(self, other: "OccupancyReducer") -> None:
        if (other.capacity, other.seed) != (self.capacity, self.seed):
            raise ProfileError(
                "cannot merge occupancy samples with different "
                f"capacity/seed ({other.capacity}/{other.seed} vs "
                f"{self.capacity}/{self.seed})")
        for key, count in other.changes.items():
            self.changes[key] = self.changes.get(key, 0) + count
        self.total += other.total
        self.max_core = max(self.max_core, other.max_core)
        self.change_horizon = max(self.change_horizon,
                                  other.change_horizon)
        self.pruned = self.pruned or other.pruned
        if len(self.changes) > self.capacity:
            keep = sorted(self.changes,
                          key=self._priority)[:self.capacity]
            self.changes = {key: self.changes[key] for key in keep}
            self.pruned = True
        self._rebuild_heap()

    def render(self, stream_horizon: int, n_cores: Optional[int] = None,
               width: int = 72) -> str:
        """ASCII occupancy strip, one row per core cache.

        Each column is a time bucket; the glyph is the number of objects
        assigned to that core's cache at the bucket's end (``0``–``9``,
        then ``+``).  A consistently high row next to starved rows is
        the paper's overpacked-cache signal.  Within-bucket ordering of
        changes is irrelevant (only cumulative counts at bucket edges
        matter), so applying each distinct change ``count`` times at
        once gives the same strip as applying them event by event.
        """
        if not self.changes:
            return "(no assignment events recorded)"
        full_horizon = max(self.change_horizon, stream_horizon)
        if n_cores is None:
            n_cores = self.max_core + 1
        width = max(8, width)
        # width * bucket must strictly exceed the horizon so an event at
        # exactly ts == horizon still lands inside the final column.
        bucket = full_horizon // width + 1
        ordered = sorted(self.changes.items(), key=lambda item: item[0][0])
        counts = [0] * n_cores
        rows = [["0"] * width for _ in range(n_cores)]
        index = 0
        for column in range(width):
            edge = (column + 1) * bucket
            while index < len(ordered) and ordered[index][0][0] < edge:
                (_, core_id, delta), count = ordered[index]
                if core_id < n_cores:
                    counts[core_id] += delta * count
                index += 1
            for core_id in range(n_cores):
                count = counts[core_id]
                rows[core_id][column] = (str(count) if 0 <= count <= 9
                                         else "+")
        header = f"assigned objects per cache  (bucket = {bucket:,} cycles)"
        if self.pruned:
            kept = sum(self.changes.values())
            header += (f"  [sampled: kept {kept:,} of {self.total:,} "
                       "changes]")
        lines = [header]
        for core_id in range(n_cores):
            lines.append(f"core {core_id:>3} |{''.join(rows[core_id])}|")
        lines.append(f"         0{'cycles'.center(width - 1)}"
                     f"{full_horizon:,}")
        return "\n".join(lines)

    def state(self) -> Dict[str, Any]:
        return {"capacity": self.capacity, "seed": self.seed,
                "total": self.total, "max_core": self.max_core,
                "change_horizon": self.change_horizon,
                "pruned": self.pruned,
                "changes": [[ts, core, delta, count]
                            for (ts, core, delta), count
                            in sorted(self.changes.items())]}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "OccupancyReducer":
        reducer = cls(capacity=state["capacity"], seed=state["seed"])
        reducer.total = state["total"]
        reducer.max_core = state["max_core"]
        reducer.change_horizon = state["change_horizon"]
        reducer.pruned = state["pruned"]
        for ts, core, delta, count in state["changes"]:
            reducer.changes[(ts, core, delta)] = count
        reducer._rebuild_heap()
        return reducer


class SweepReducer:
    """Fleet-level sweep activity: cases, throughput, worker lifecycle.

    Per-scheduler throughputs are kept as *lists* (not running sums):
    list concatenation is exact under float semantics, so the merge law
    holds bit-for-bit; memory is one float per finished cell, which is
    bounded by the grid size, not the event count.
    """

    def __init__(self) -> None:
        self.started = 0
        self.finished = 0
        self.cached = 0
        self.failed = 0
        self.workers_joined = 0
        self.workers_lost = 0
        self.leases_expired = 0
        self.kops: Dict[str, List[float]] = {}

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {SweepCaseStarted: self._started,
                SweepCaseFinished: self._finished,
                SweepCaseFailed: self._failed,
                WorkerJoined: self._joined,
                WorkerLost: self._lost,
                LeaseExpired: self._lease_expired}

    def _started(self, event: SweepCaseStarted) -> None:
        self.started += 1

    def _finished(self, event: SweepCaseFinished) -> None:
        self.finished += 1
        if event.cached:
            self.cached += 1
        self.kops.setdefault(event.scheduler, []).append(event.kops)

    def _failed(self, event: SweepCaseFailed) -> None:
        self.failed += 1

    def _joined(self, event: WorkerJoined) -> None:
        self.workers_joined += 1

    def _lost(self, event: WorkerLost) -> None:
        self.workers_lost += 1

    def _lease_expired(self, event: LeaseExpired) -> None:
        self.leases_expired += 1

    def active(self) -> bool:
        return bool(self.started or self.finished or self.failed
                    or self.workers_joined or self.workers_lost
                    or self.leases_expired)

    def merge_from(self, other: "SweepReducer") -> None:
        self.started += other.started
        self.finished += other.finished
        self.cached += other.cached
        self.failed += other.failed
        self.workers_joined += other.workers_joined
        self.workers_lost += other.workers_lost
        self.leases_expired += other.leases_expired
        for scheduler, values in other.kops.items():
            self.kops.setdefault(scheduler, []).extend(values)

    def render(self) -> Optional[str]:
        if not self.active():
            return None
        lines = ["Fleet sweep activity (ts = dispatch sequence)",
                 f"  cases: {self.started:,} started, "
                 f"{self.finished:,} finished ({self.cached:,} cached), "
                 f"{self.failed:,} failed"]
        if self.kops:
            lines.append("  throughput by scheduler (kops/s over "
                         "finished cells):")
            for scheduler in sorted(self.kops):
                stats = summarise(self.kops[scheduler])
                lines.append(f"    {scheduler:<10} n={stats.n:,}  "
                             f"mean={stats.mean:,.1f}  "
                             f"min={stats.minimum:,.1f}  "
                             f"max={stats.maximum:,.1f}")
        if self.workers_joined or self.workers_lost or self.leases_expired:
            lines.append(f"  fleet: {self.workers_joined:,} worker(s) "
                         f"joined, {self.workers_lost:,} lost, "
                         f"{self.leases_expired:,} lease(s) expired")
        return "\n".join(lines)

    def state(self) -> Dict[str, Any]:
        return {"started": self.started, "finished": self.finished,
                "cached": self.cached, "failed": self.failed,
                "workers_joined": self.workers_joined,
                "workers_lost": self.workers_lost,
                "leases_expired": self.leases_expired,
                "kops": {scheduler: list(values)
                         for scheduler, values in self.kops.items()}}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "SweepReducer":
        reducer = cls()
        for field in ("started", "finished", "cached", "failed",
                      "workers_joined", "workers_lost", "leases_expired"):
            setattr(reducer, field, state[field])
        for scheduler, values in state["kops"].items():
            reducer.kops[scheduler] = list(values)
        return reducer


# ---------------------------------------------------------------------------
# one run's profile (a section of the stream)
# ---------------------------------------------------------------------------

class RunProfile:
    """All reducers for one run, with one combined dispatch table.

    Renders the report sections (header, per-object attribution,
    per-core breakdown, migration matrix, lock table, occupancy
    timeline) plus latency/sweep sections when populated.
    """

    def __init__(self, label: Optional[str],
                 sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
                 sample_seed: int = 0) -> None:
        self.label = label
        self.events = 0
        self.horizon = 0
        self.objects = ObjectCostsReducer()
        self.cores = CoreBreakdownReducer()
        self.matrix = MigrationMatrixReducer()
        self.locks = LockTableReducer()
        self.latency = LatencyReducer()
        self.occupancy = OccupancyReducer(capacity=sample_capacity,
                                          seed=sample_seed)
        self.sweep = SweepReducer()
        self._wire()

    def _wire(self) -> None:
        """Build the dispatch table over the current reducers."""
        dispatch: Dict[Type[Event], List[Handler]] = {}
        for reducer in (self.objects, self.cores, self.matrix, self.locks,
                        self.latency, self.occupancy, self.sweep):
            for etype, handler in reducer.handlers().items():
                dispatch.setdefault(etype, []).append(handler)
        self._dispatch = dispatch

    @property
    def display_label(self) -> str:
        return self.label if self.label is not None else "run"

    def feed(self, event: Event) -> None:
        self.events += 1
        ts = event.ts
        if type(event) is MigrationStarted and event.arrive_ts > ts:
            ts = event.arrive_ts
        if ts > self.horizon:
            self.horizon = ts
        for handler in self._dispatch.get(type(event), ()):
            handler(event)

    def merge_from(self, other: "RunProfile") -> None:
        self.events += other.events
        self.horizon = max(self.horizon, other.horizon)
        self.objects.merge_from(other.objects)
        self.cores.merge_from(other.cores)
        self.matrix.merge_from(other.matrix)
        self.locks.merge_from(other.locks)
        self.latency.merge_from(other.latency)
        self.occupancy.merge_from(other.occupancy)
        self.sweep.merge_from(other.sweep)

    def render(self, top: int = 10, width: int = 72) -> str:
        sections = [
            f"=== run: {self.display_label} "
            f"({self.events:,} events, horizon "
            f"{self.horizon:,} cycles) ===",
            "",
            render_object_costs(self.objects.result(), top=top),
            "",
            render_core_breakdown(self.cores.result(self.horizon)),
            "",
            render_migration_matrix(self.matrix.result()),
            "",
            render_lock_table(self.locks.result(), top=top),
        ]
        latency = self.latency.render()
        if latency is not None:
            sections.extend(["", latency])
        sweep = self.sweep.render()
        if sweep is not None:
            sections.extend(["", sweep])
        sections.extend(["", self.occupancy.render(self.horizon,
                                                   width=width)])
        return "\n".join(sections)

    def state(self) -> Dict[str, Any]:
        return {"label": self.label, "events": self.events,
                "horizon": self.horizon,
                "objects": self.objects.state(),
                "cores": self.cores.state(),
                "migrations": self.matrix.state(),
                "locks": self.locks.state(),
                "latency": self.latency.state(),
                "occupancy": self.occupancy.state(),
                "sweep": self.sweep.state()}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RunProfile":
        occupancy = state["occupancy"]
        section = cls(state["label"],
                      sample_capacity=occupancy["capacity"],
                      sample_seed=occupancy["seed"])
        section.events = state["events"]
        section.horizon = state["horizon"]
        section.objects = ObjectCostsReducer.from_state(state["objects"])
        section.cores = CoreBreakdownReducer.from_state(state["cores"])
        section.matrix = MigrationMatrixReducer.from_state(
            state["migrations"])
        section.locks = LockTableReducer.from_state(state["locks"])
        section.latency = LatencyReducer.from_state(state["latency"])
        section.occupancy = OccupancyReducer.from_state(occupancy)
        section.sweep = SweepReducer.from_state(state["sweep"])
        section._wire()
        return section


# ---------------------------------------------------------------------------
# the mergeable profile artifact
# ---------------------------------------------------------------------------

class Profile:
    """A serializable, mergeable whole-stream profile: one section per run.

    Every :class:`RunMarker` opens a new section, whatever its label;
    events before the first marker go to a headless section (label
    None, rendered as ``run``).  Merging concatenates: the
    right profile's headless prefix continues the left profile's last
    section, and the right's other sections are appended.  With that,
    ``merge(P(a), P(b)) == P(a + b)`` holds for any split point of one
    stream — the tested algebraic law distributed sweeps rely on.
    """

    def __init__(self, sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
                 sample_seed: int = 0) -> None:
        self.sample_capacity = sample_capacity
        self.sample_seed = sample_seed
        #: One section per run, in stream order.
        self.sections: List[RunProfile] = []

    def _open(self, label: Optional[str]) -> None:
        self.sections.append(RunProfile(
            label, sample_capacity=self.sample_capacity,
            sample_seed=self.sample_seed))

    def feed(self, event: Event) -> None:
        if type(event) is RunMarker:
            self._open(event.label)
            return
        if not self.sections:
            self._open(None)
        self.sections[-1].feed(event)

    @classmethod
    def from_events(cls, events: Iterable[Event],
                    sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
                    sample_seed: int = 0) -> "Profile":
        profile = cls(sample_capacity=sample_capacity,
                      sample_seed=sample_seed)
        for event in events:
            profile.feed(event)
        return profile

    @property
    def total_events(self) -> int:
        return sum(section.events for section in self.sections)

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------

    def _ingest(self, other: "Profile") -> None:
        """Append ``other`` (the right-hand stream) to self, in place.

        ``other``'s sections are adopted directly, so callers must pass
        a profile they own (:func:`merge_profiles` round-trips through
        JSON to guarantee that).
        """
        if (other.sample_capacity != self.sample_capacity
                or other.sample_seed != self.sample_seed):
            raise ProfileError(
                "cannot merge profiles with different sampling "
                f"parameters (capacity {other.sample_capacity}, seed "
                f"{other.sample_seed} vs capacity "
                f"{self.sample_capacity}, seed {self.sample_seed})")
        sections = other.sections
        if sections and sections[0].label is None and self.sections:
            # the right stream's pre-marker events continue the left
            # stream's last run
            self.sections[-1].merge_from(sections[0])
            sections = sections[1:]
        self.sections.extend(sections)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, sections in stream order)."""
        document = {
            "kind": "repro.profile",
            "version": PROFILE_FORMAT_VERSION,
            "schema_version": SCHEMA_VERSION,
            "sample_capacity": self.sample_capacity,
            "sample_seed": self.sample_seed,
            "sections": [section.state() for section in self.sections],
        }
        return json.dumps(document, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, text: str,
                  source: Optional[str] = None) -> "Profile":
        prefix = f"{source}: " if source else ""
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise ProfileError(f"{prefix}not valid JSON: {exc}")
        if (not isinstance(document, dict)
                or document.get("kind") != "repro.profile"):
            raise ProfileError(
                f"{prefix}not a repro.profile artifact (expected "
                "kind='repro.profile')")
        version = document.get("version")
        if version != PROFILE_FORMAT_VERSION:
            raise ProfileError(
                f"{prefix}profile format version {version!r} is not "
                f"supported (this analyzer reads "
                f"{PROFILE_FORMAT_VERSION})")
        profile = cls(sample_capacity=document["sample_capacity"],
                      sample_seed=document["sample_seed"])
        profile.sections = [RunProfile.from_state(state)
                            for state in document["sections"]]
        return profile

    def __repr__(self) -> str:
        labels = [section.display_label for section in self.sections]
        return (f"Profile(sections={labels}, "
                f"events={self.total_events:,})")

    def render(self, top: int = 10, width: int = 72) -> str:
        """Full report: one section per run, in stream order."""
        if not self.sections:
            return "(empty profile)"
        return "\n\n".join(section.render(top=top, width=width)
                           for section in self.sections)


def load_profile(path: str) -> Profile:
    """Read a :class:`Profile` artifact (``.json`` or ``.json.gz``)."""
    with open_text(path, "r") as handle:
        return Profile.from_json(handle.read(), source=path)


def merge_profiles(profiles: Sequence[Profile]) -> Profile:
    """Non-destructive left fold over ``profiles``: a new profile equal
    to ``P(a + b + ...)`` of the concatenated streams."""
    if not profiles:
        raise ProfileError("no profiles to merge")
    merged = Profile.from_json(profiles[0].to_json())
    for profile in profiles[1:]:
        merged._ingest(Profile.from_json(profile.to_json()))
    return merged


# ---------------------------------------------------------------------------
# the A/B diff
# ---------------------------------------------------------------------------

#: The rows of a diff that compare plain values, after the sampled ones.
_COUNT_ROWS = ("ops", "migrations", "migration cycles",
               "contended lock acquires", "L3 evictions",
               "invalidated copies", "horizon (cycles)")


def _diff_side(sections: Sequence[RunProfile]) -> Tuple[
        Tuple[Moments, ...], List[int]]:
    """One side of a diff, its sections taken as one stream: the moments
    of each sampled metric and the value of each count row."""
    samples = tuple(Moments() for _ in SAMPLED_METRICS)
    sums = [0] * (len(_COUNT_ROWS) - 1)          # every row but horizon
    horizon = 0
    for section in sections:
        for mine, theirs in zip(samples, section.objects.samples):
            mine.merge_from(theirs)
        sums = [total + value for total, value in zip(sums, (
            section.latency.op.count, section.latency.flight.count,
            sum(core.migrating
                for core in section.cores.result(section.horizon)),
            sum(lock.contended_acquires for lock in section.locks.result()),
            section.objects.evictions, section.objects.invalidations))]
        horizon = max(horizon, section.horizon)
    return samples, sums + [horizon]


def diff_sections(baseline: Sequence[RunProfile],
                  candidate: Sequence[RunProfile]) -> List[MetricDelta]:
    """Per-metric deltas between two recordings' run sections.

    Sample metrics (per-operation distributions) carry
    :class:`~repro.analysis.SampleStats` confidence intervals so a
    scheduler A/B — or a regression check — can tell signal from seed
    noise; count metrics report plain deltas.
    """
    (base_samples, base_counts), (cand_samples, cand_counts) = (
        _diff_side(baseline), _diff_side(candidate))
    deltas = [MetricDelta(name, base.stats(), cand.stats())
              for name, base, cand in zip(SAMPLED_METRICS, base_samples,
                                          cand_samples)
              if base.n and cand.n]
    deltas.extend(MetricDelta(name, None, None, float(bval), float(cval))
                  for name, bval, cval in zip(_COUNT_ROWS, base_counts,
                                              cand_counts)
                  if bval or cval)
    return deltas


# ---------------------------------------------------------------------------
# streaming front-ends
# ---------------------------------------------------------------------------

class StreamProfiler:
    """Incremental profiling front-end: one event in, never looks back.

    Accepts typed events (:meth:`feed`) or whole files (:meth:`feed_path`,
    via the generator ingest) — both land in the same mergeable
    :class:`Profile`.
    """

    def __init__(self) -> None:
        self.profile = Profile()
        self.events_seen = 0

    def feed(self, event: Event) -> None:
        self.profile.feed(event)
        self.events_seen += 1

    def feed_path(self, path: str) -> "StreamProfiler":
        for event in iter_jsonl(path):
            self.feed(event)
        return self

    def render(self, top: int = 10, width: int = 72) -> str:
        return self.profile.render(top=top, width=width)


class Recorder:
    """The one writer of recording files, as the events are published.

    Attached to a pipeline's bus, it feeds each control-plane event to
    :attr:`profile` and writes it to ``events_path`` (opened at the
    first :meth:`attach`) through :func:`~repro.obs.export.write_events`,
    :data:`RECORD_CHUNK` events at a time.  :meth:`close` flushes it and
    writes the profile to ``profile_path``, if one is given.
    """

    def __init__(self, events_path: str,
                 profile_path: Optional[str] = None) -> None:
        self.events_path = events_path
        self.profile_path = profile_path
        self.profile = Profile()
        self._handle: Optional[Any] = None
        self._chunk: List[Event] = []

    @classmethod
    def shard(cls, profile_dir: str, name: str) -> "Recorder":
        """A sweep worker's shard: ``<dir>/<name>.events.jsonl.gz`` and
        ``<dir>/<name>.profile.json``.  Workers that never ran a case
        write neither, so concatenating the shard recordings and merging
        the shard profiles describe the same stream."""
        os.makedirs(profile_dir, exist_ok=True)
        return cls(os.path.join(profile_dir, f"{name}.events.jsonl.gz"),
                   os.path.join(profile_dir, f"{name}.profile.json"))

    def attach(self, obs: Observability) -> Observability:
        """Record ``obs``'s events from now on; returns ``obs``.  Attach
        before the simulator is built, or its ``RunMarker`` is lost."""
        if self._handle is None:
            self._handle = open_text(self.events_path, "w")
            self._handle.write(jsonl_meta_line() + "\n")
        obs.bus.subscribe(self._record, *CONTROL_EVENTS)
        return obs

    def _record(self, event: Event) -> None:
        self.profile.feed(event)
        self._chunk.append(event)
        if len(self._chunk) >= RECORD_CHUNK:
            write_events(self._handle, self._chunk)
            self._chunk.clear()

    def close(self) -> Optional[str]:
        """Flush the recording; returns the profile path (None if never
        attached or no profile path was given).  Idempotent."""
        if self._handle is None:
            return None
        write_events(self._handle, self._chunk)
        self._chunk.clear()
        self._handle.close()
        self._handle = None
        if self.profile_path is not None:
            with open(self.profile_path, "w", encoding="utf-8") as handle:
                handle.write(self.profile.to_json() + "\n")
        return self.profile_path


# ---------------------------------------------------------------------------
# synthetic streams (scale testing without a day of simulation)
# ---------------------------------------------------------------------------

def synthesize(n_events: int, seed: int = 0, label: str = "synthetic",
               n_cores: int = 8, n_objects: int = 64,
               n_threads: int = 32) -> Iterator[Event]:
    """Deterministic pseudo-workload stream of ``n_events`` events.

    Returns a generator (never materialized) mixing every
    attribution-relevant event kind with plausible correlations: threads
    start/finish operations, migrate mid-op, contend on locks, and the
    scheduler occasionally reassigns objects.  Feeding it straight to
    ``write_jsonl`` produces multi-million-event recordings in seconds —
    the CI ``stream-analysis`` job's out-of-core fixture.

    Raises :class:`~repro.errors.ConfigError` at the call, before any
    event is made, when a count is below 1.
    """
    for name, value in (("n_events", n_events), ("n_cores", n_cores),
                        ("n_objects", n_objects),
                        ("n_threads", n_threads)):
        if value < 1:
            raise ConfigError(f"synthesize: {name} must be at least 1, "
                              f"got {value}")
    return _synthesized(n_events, seed, label, n_cores, n_objects,
                        n_threads)


def _synthesized(n_events: int, seed: int, label: str, n_cores: int,
                 n_objects: int, n_threads: int) -> Iterator[Event]:
    rng = random.Random(seed)
    yield RunMarker(0, label)
    emitted = 1
    ts = 0
    in_op: Dict[str, Tuple[str, int, int]] = {}
    while emitted < n_events:
        ts += rng.randrange(5, 60)
        thread = f"t{rng.randrange(n_threads)}"
        state = in_op.get(thread)
        roll = rng.random()
        if state is not None and roll < 0.55:
            obj, core, started = state
            cycles = ts - started if ts > started \
                else rng.randrange(80, 4_000)
            del in_op[thread]
            if rng.random() < 0.9:
                yield OperationFinished(
                    ts, core, thread, obj, cycles,
                    dram=rng.randrange(0, 12),
                    remote=rng.randrange(0, 6),
                    mem_stall=rng.randrange(0, cycles // 2 + 1),
                    spin=rng.randrange(0, cycles // 8 + 1))
            else:
                # migrated mid-op: counters are unattributable
                yield OperationFinished(ts, core, thread, obj, cycles)
        elif state is None and roll < 0.55:
            core = rng.randrange(n_cores)
            obj = f"obj{rng.randrange(n_objects)}"
            in_op[thread] = (obj, core, ts)
            yield OperationStarted(ts, core, thread, obj)
        elif roll < 0.70:
            core = state[1] if state is not None \
                else rng.randrange(n_cores)
            target = rng.randrange(n_cores)
            yield MigrationStarted(ts, core, thread, target,
                                   ts + rng.randrange(50, 400))
            if state is not None:
                in_op[thread] = (state[0], target, state[2])
        elif roll < 0.85:
            yield LockContended(ts, rng.randrange(n_cores), thread,
                                f"lock{rng.randrange(8)}")
        elif roll < 0.95:
            yield CacheEvicted(ts, rng.randrange(n_cores), "L3",
                               rng.randrange(1 << 16),
                               obj=f"obj{rng.randrange(n_objects)}")
        elif roll < 0.985:
            yield ObjectAssigned(ts, rng.randrange(n_cores),
                                 f"obj{rng.randrange(n_objects)}")
        else:
            yield ObjectMoved(ts, rng.randrange(n_cores),
                              f"obj{rng.randrange(n_objects)}",
                              rng.randrange(n_cores),
                              round(rng.random() * 10, 2))
        emitted += 1
