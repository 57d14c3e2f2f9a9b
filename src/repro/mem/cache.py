"""Cache capacity model.

:class:`LRUCache` is fully associative with true LRU replacement.  For
the workloads studied here (streaming scans over objects much larger
than a set) it predicts the same resident sets as a set-associative
cache.

Caches store only *presence* and recency of lines.  Coherence state (which
caches hold a line) lives in :class:`repro.mem.sharing.SharingDirectory`;
keeping the two separate keeps the per-access hot path small.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional

from repro.errors import ConfigError


class LRUCache:
    """Fully associative cache with true LRU replacement.

    The unit is a cache-line number; the cache neither knows nor cares
    about byte addresses.  ``insert`` returns the evicted victim line (if
    any) so callers can cascade victims to the next level.
    """

    __slots__ = ("cache_id", "capacity", "_lines", "pinned", "evictions")

    def __init__(self, capacity: int, cache_id: str = "?") -> None:
        if capacity < 1:
            raise ConfigError(f"cache {cache_id}: capacity must be >= 1 line")
        self.cache_id = cache_id
        self.capacity = capacity
        self._lines: "OrderedDict[int, None]" = OrderedDict()
        #: Lines exempt from eviction (used by explicit cache control
        #: experiments, §6.1).  Pinned lines still count against capacity.
        self.pinned: set = set()
        #: Lifetime capacity evictions (victims returned by ``insert``);
        #: pulled into the observability metrics registry as a gauge.
        self.evictions = 0

    def __contains__(self, line: int) -> bool:
        return line in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    @property
    def free_lines(self) -> int:
        return self.capacity - len(self._lines)

    def touch(self, line: int) -> None:
        """Mark ``line`` most-recently-used.  No-op if absent."""
        if line in self._lines:
            self._lines.move_to_end(line)

    def insert(self, line: int) -> Optional[int]:
        """Insert ``line`` as MRU; return the evicted victim, if any.

        Inserting a line already present just refreshes its recency and
        returns None.
        """
        lines = self._lines
        if line in lines:
            lines.move_to_end(line)
            return None
        lines[line] = None
        if len(lines) <= self.capacity:
            return None
        return self._evict()

    def _evict(self) -> int:
        """Pop and return the LRU victim (the cache is over capacity).

        Split out of :meth:`insert` so the memory system's flattened hot
        path can do the presence test and MRU insert inline on ``_lines``
        and only pay a method call on actual overflow.
        """
        lines = self._lines
        self.evictions += 1
        if not self.pinned:
            victim, _ = lines.popitem(last=False)
            return victim
        for candidate in lines:
            if candidate not in self.pinned:
                del lines[candidate]
                return candidate
        # Everything pinned: evict the newcomer's LRU anyway to preserve
        # the capacity invariant.
        victim, _ = lines.popitem(last=False)
        return victim

    def remove(self, line: int) -> None:
        """Remove ``line``; silently ignores absent lines (invalidation of
        a line another cache already evicted is common)."""
        self._lines.pop(line, None)
        self.pinned.discard(line)

    def pin(self, line: int) -> None:
        if line in self._lines:
            self.pinned.add(line)

    def unpin(self, line: int) -> None:
        self.pinned.discard(line)

    def lines(self) -> Iterator[int]:
        """Lines in LRU-to-MRU order."""
        return iter(self._lines)

    def clear(self) -> None:
        self._lines.clear()
        self.pinned.clear()
