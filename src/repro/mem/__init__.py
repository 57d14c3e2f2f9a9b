"""Simulated memory hierarchy: caches, coherence, interconnect, DRAM."""

from repro.mem.cache import LRUCache
from repro.mem.counters import COUNTER_FIELDS, CoreCounters, aggregate
from repro.mem.dram import Dram, MemoryController
from repro.mem.interconnect import Interconnect
from repro.mem.layout import AddressSpace, Region
from repro.mem.line import align_up
from repro.mem.sharing import SharingDirectory
from repro.mem.system import MemorySystem

__all__ = [
    "AddressSpace",
    "COUNTER_FIELDS",
    "CoreCounters",
    "Dram",
    "Interconnect",
    "LRUCache",
    "MemoryController",
    "MemorySystem",
    "Region",
    "SharingDirectory",
    "aggregate",
    "align_up",
]
