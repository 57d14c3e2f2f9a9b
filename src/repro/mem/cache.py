"""Cache capacity model.

Every cache is fully associative with true LRU replacement.  For the
workloads studied here (streaming scans over objects much larger than a
set) that predicts the same resident sets as a set-associative cache.

Caches store only *presence* and recency of lines.  Coherence state (which
caches hold a line) lives in :class:`repro.mem.sharing.SharingDirectory`;
keeping the two separate keeps the per-access hot path small.

A chip's shared L3 is an :class:`LRUCache`.  A core's private L1 and L2
are one :class:`PrivateStack`: the levels are exclusive and fed by the
L1 -> L2 victim cascade, so together they hold the core's most recently
used lines in one LRU order, L1 the newer part of it and L2 the older
(the stack property of Mattson et al., 1970).  The stack keeps that
order as stamps, and the two levels are :class:`StackLevel` views of it
with the :class:`LRUCache` interface.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from repro.errors import ConfigError

#: A stack renumbers its stamps from 0 once its slot list holds this many
#: slots per line of L1 + L2 capacity.
RENUMBER_FACTOR = 4


class LRUCache:
    """Fully associative cache with true LRU replacement.

    The unit is a cache-line number; the cache neither knows nor cares
    about byte addresses.  The memory system's load path inserts, refreshes
    and evicts directly on ``_lines`` (an ordered dict, LRU first) and
    counts each capacity eviction in ``evictions``.
    """

    __slots__ = ("cache_id", "capacity", "_lines", "evictions")

    def __init__(self, capacity: int, cache_id: str = "?") -> None:
        if capacity < 1:
            raise ConfigError(f"cache {cache_id}: capacity must be >= 1 line")
        self.cache_id = cache_id
        self.capacity = capacity
        self._lines: "OrderedDict[int, None]" = OrderedDict()
        #: Lifetime capacity evictions; pulled into the observability
        #: metrics registry as a gauge.
        self.evictions = 0

    def __contains__(self, line: int) -> bool:
        return line in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    def remove(self, line: int) -> None:
        """Remove ``line``; silently ignores absent lines (invalidation of
        a line another cache already evicted is common)."""
        self._lines.pop(line, None)

    def lines(self) -> Iterator[int]:
        """Lines in LRU-to-MRU order."""
        return iter(self._lines)


class PrivateStack:
    """One core's exclusive L1 and L2 as a single LRU recency stack.

    Every access to a line gives it the next stamp: ``where`` maps each
    line to its stamp and ``slots[stamp]`` holds the line, or None once
    the line was stamped again or dropped.  L1 is the live stamps at or
    above the boundary stamp ``edge``, L2 the live stamps below it; ``n1``
    and ``n2`` count them.

    The boundary is a stamp, not a depth: a line dropped from L1 (by
    invalidation) leaves a hole that L2 lines do not move up into.  The
    next line to enter L1 fills the hole and demotes nothing.

    * ``edge`` lies in (newest L2 stamp, oldest L1 stamp]; it may point at
      a dead slot.  Demoting L1's LRU line to L2's MRU line walks ``edge``
      to the next live slot and steps past it; the line does not move.
    * ``low`` is at or below the oldest live stamp.  Evicting L2's LRU
      line walks ``low`` to the oldest live slot.

    Both only move up, so both walks are amortised O(1).  Before the slot
    list outgrows ``limit`` (:data:`RENUMBER_FACTOR` slots per line of
    capacity) the memory system calls :meth:`renumber`.

    :class:`~repro.mem.system.MemorySystem` runs the stack's hit and
    insert paths inline; this class holds the state, the cold operations
    and the two level views ``l1`` and ``l2``.
    """

    __slots__ = ("where", "slots", "edge", "low", "n1", "n2", "limit",
                 "l1", "l2")

    def __init__(self, l1_capacity: int, l2_capacity: int,
                 core_id: int = 0) -> None:
        self.where: Dict[int, int] = {}
        self.slots: List[Optional[int]] = []
        self.edge = self.low = self.n1 = self.n2 = 0
        self.limit = RENUMBER_FACTOR * (l1_capacity + l2_capacity)
        self.l1 = StackLevel(self, True, l1_capacity, f"L1.{core_id}")
        self.l2 = StackLevel(self, False, l2_capacity, f"L2.{core_id}")

    def drop(self, line: int) -> None:
        """Remove ``line`` from whichever level holds it (absent lines
        are ignored, as :meth:`LRUCache.remove` does)."""
        stamp = self.where.pop(line, None)
        if stamp is None:
            return
        self.slots[stamp] = None
        if stamp >= self.edge:
            self.n1 -= 1
        else:
            self.n2 -= 1

    def renumber(self) -> None:
        """Restamp the live lines 0, 1, ... in order; ``edge`` becomes the
        L2 count.  The slot list and ``where`` keep their identity (the
        scan loop holds both in locals)."""
        slots, edge = self.slots, self.edge
        live = [line for line in slots[self.low:edge] if line is not None]
        self.edge = len(live)
        live += [line for line in slots[edge:] if line is not None]
        slots[:] = live
        self.where.update(zip(live, range(len(live))))
        self.low = 0


class StackLevel:
    """L1 (``upper``) or L2 of a :class:`PrivateStack`, with the
    :class:`LRUCache` interface; ``evictions`` counts the lines that
    left this level for the one below."""

    __slots__ = ("stack", "upper", "cache_id", "capacity", "evictions")

    def __init__(self, stack: PrivateStack, upper: bool, capacity: int,
                 cache_id: str) -> None:
        if capacity < 1:
            raise ConfigError(f"cache {cache_id}: capacity must be >= 1 line")
        self.stack = stack
        self.upper = upper
        self.cache_id = cache_id
        self.capacity = capacity
        self.evictions = 0

    def __contains__(self, line: int) -> bool:
        stamp = self.stack.where.get(line)
        return stamp is not None and (stamp >= self.stack.edge) == self.upper

    def __len__(self) -> int:
        return self.stack.n1 if self.upper else self.stack.n2

    def remove(self, line: int) -> None:
        if line in self:
            self.stack.drop(line)

    def lines(self) -> Iterator[int]:
        """Lines in LRU-to-MRU order."""
        stack = self.stack
        span = (stack.slots[stack.edge:] if self.upper
                else stack.slots[stack.low:stack.edge])
        return (line for line in span if line is not None)
