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
order as :class:`Run` s of consecutive lines with consecutive stamps, and
the two levels are :class:`StackLevel` views of it with the
:class:`LRUCache` interface.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional

from repro.errors import ConfigError


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


class Run:
    """Lines ``lo..hi`` of a :class:`PrivateStack`, stamped ``lo + d`` to
    ``hi + d``: consecutive lines with consecutive stamps.  ``older`` and
    ``newer`` link the stack's runs in stamp order."""

    __slots__ = ("lo", "hi", "d", "older", "newer")

    def __init__(self, lo: int, hi: int, d: int, older: "Run",
                 newer: "Run") -> None:
        self.lo = lo
        self.hi = hi
        self.d = d
        self.older = older
        self.newer = newer


class PrivateStack:
    """One core's exclusive L1 and L2 as a single LRU recency stack.

    Every access gives the line the next stamp, ``top``.  The stack holds
    its lines as runs (:class:`Run`): a scan of lines a..b ends as one run
    at the top, and a line loaded on its own is a run of its own.  Runs
    are linked in stamp order in a ring closed by ``head`` (``head.newer``
    is the oldest run, ``head.older`` the newest), and ``runs`` maps each
    run's first line to it.  L1 is the lines stamped at or above the
    boundary stamp ``edge``, L2 the lines below it; ``n1`` and ``n2``
    count them.

    The boundary is a stamp, not a depth: a line dropped from L1 (by
    invalidation) leaves a hole that L2 lines do not move up into.  The
    next line to enter L1 fills the hole and demotes nothing.  Demoting
    L1's LRU line to L2's MRU line moves ``edge`` past it; the line does
    not move.  ``erun`` is the oldest run with a stamp at or above
    ``edge`` (``head`` while L1 is empty), where the next demotion starts.

    A run is cut in two only where an access or a drop lands inside it,
    and a stamp is a Python int, so nothing is ever renumbered.

    :class:`~repro.mem.system.MemorySystem` runs the stack's hit and
    insert paths inline; this class holds the state, the cold operations
    and the two level views ``l1`` and ``l2``.
    """

    __slots__ = ("runs", "head", "edge", "erun", "top", "n1", "n2", "span",
                 "l1", "l2")

    def __init__(self, l1_capacity: int, l2_capacity: int,
                 core_id: int = 0) -> None:
        self.l1 = StackLevel(self, True, l1_capacity, f"L1.{core_id}")
        self.l2 = StackLevel(self, False, l2_capacity, f"L2.{core_id}")
        head = Run(0, -1, 0, None, None)     # type: ignore[arg-type]
        head.older = head.newer = head
        self.head = head
        self.runs: Dict[int, Run] = {}
        self.erun = head
        self.edge = self.top = self.n1 = self.n2 = 0
        #: No run is longer than the stack can hold.
        self.span = l1_capacity + l2_capacity

    def find(self, line: int) -> Optional[Run]:
        """The run holding ``line``, or None.  Cold: the hot paths find a
        run by its first line.  A run holds at most ``span`` lines, so
        its first line lies fewer than ``span`` lines below ``line``."""
        runs = self.runs
        for start in range(line, line - self.span, -1):
            run = runs.get(start)
            if run is not None:
                return run if run.hi >= line else None
        return None

    def cut(self, line: int) -> Optional[Run]:
        """Cut the run holding ``line`` below it and return the upper
        part, now a run of its own right after the lower one in stamp
        order; None if no run holds the line.  Cold, like :meth:`find`:
        only a line inside a run needs it."""
        run = self.find(line)
        if run is None or run.lo == line:
            return run
        upper = Run(line, run.hi, run.d, run, run.newer)
        run.newer.older = upper
        run.newer = upper
        run.hi = line - 1
        self.runs[line] = upper
        if self.erun is run and line - 1 + run.d < self.edge:
            self.erun = upper
        return upper

    def drop(self, line: int) -> None:
        """Remove ``line`` from whichever level holds it (absent lines
        are ignored, as :meth:`LRUCache.remove` does)."""
        runs = self.runs
        run = runs.get(line)
        if run is None:
            run = self.cut(line)
            if run is None:
                return
        if line + run.d >= self.edge:
            self.n1 -= 1
        else:
            self.n2 -= 1
        del runs[line]
        if run.hi > line:
            run.lo = line + 1
            runs[line + 1] = run
            return
        older, newer = run.older, run.newer
        older.newer = newer
        newer.older = older
        if self.erun is run:
            self.erun = newer


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
        run = self.stack.find(line)
        return (run is not None
                and (line + run.d >= self.stack.edge) == self.upper)

    def __len__(self) -> int:
        return self.stack.n1 if self.upper else self.stack.n2

    def remove(self, line: int) -> None:
        if line in self:
            self.stack.drop(line)

    def lines(self) -> Iterator[int]:
        """Lines in LRU-to-MRU order."""
        stack = self.stack
        edge, head, upper = stack.edge, stack.head, self.upper
        run = head.newer
        while run is not head:
            lo, hi, d = run.lo, run.hi, run.d
            if upper:
                yield from range(max(lo, edge - d), hi + 1)
            else:
                yield from range(lo, min(hi + 1, edge - d))
            run = run.newer
