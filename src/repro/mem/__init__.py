"""Simulated memory hierarchy: caches, coherence, interconnect, DRAM."""

from repro.mem.cache import LRUCache
from repro.mem.counters import (COUNTER_FIELDS, CoreCounters, CounterDelta,
                                CounterSnapshot, aggregate)
from repro.mem.dram import Dram, MemoryController
from repro.mem.interconnect import Interconnect
from repro.mem.layout import AddressSpace, Region
from repro.mem.line import (align_up, iter_lines, line_addr, line_of,
                            line_range, lines_spanned)
from repro.mem.sharing import SharingDirectory
from repro.mem.system import (SOURCE_NAMES, SRC_DRAM, SRC_L1, SRC_L2,
                              SRC_L3, SRC_REMOTE, MemorySystem)

__all__ = [
    "AddressSpace",
    "COUNTER_FIELDS",
    "CoreCounters",
    "CounterDelta",
    "CounterSnapshot",
    "Dram",
    "Interconnect",
    "LRUCache",
    "MemoryController",
    "MemorySystem",
    "Region",
    "SOURCE_NAMES",
    "SRC_DRAM",
    "SRC_L1",
    "SRC_L2",
    "SRC_L3",
    "SRC_REMOTE",
    "SharingDirectory",
    "aggregate",
    "align_up",
    "iter_lines",
    "line_addr",
    "line_of",
    "line_range",
    "lines_spanned",
]
