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
from typing import Iterator

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

    def clear(self) -> None:
        self._lines.clear()
