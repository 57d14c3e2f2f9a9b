"""Simulated hardware event counters.

CoreTime's runtime decisions are driven entirely by event counters (§4,
"Runtime monitoring"): per-object cache-miss counts decide which objects
are expensive to fetch, and per-core idle-cycle / DRAM-load / L2-load
counts decide when to rebalance.  :class:`CoreCounters` is the per-core
counter bank the memory system and engine update on the hot path.  A
snapshot of it is a plain tuple in :data:`COUNTER_FIELDS` order.  This
module alone maps counter names to positions in that tuple and says
which counters make up an operation's loads and expensive misses
(:func:`operation_misses`), so "the misses between a pair of CoreTime
annotations" is integer arithmetic on the entry snapshot.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Counter names in a fixed order: a snapshot's positions.  The five
#: line-load sources come first, nearest level first.
COUNTER_FIELDS = (
    "l1_hits",
    "l2_hits",
    "l3_hits",
    "remote_hits",
    "dram_loads",
    "stores",
    "invalidations",
    "lock_acquires",
    "lock_spins",
    "migrations_in",
    "migrations_out",
    "idle_cycles",
    "busy_cycles",
    "mem_cycles",
    "ops_completed",
)

#: Positions in a snapshot of the counters read from one by index.
IDX_L2 = COUNTER_FIELDS.index("l2_hits")
IDX_REMOTE = COUNTER_FIELDS.index("remote_hits")
IDX_DRAM = COUNTER_FIELDS.index("dram_loads")
IDX_IDLE = COUNTER_FIELDS.index("idle_cycles")
IDX_MEM = COUNTER_FIELDS.index("mem_cycles")
IDX_OPS = COUNTER_FIELDS.index("ops_completed")


class CoreCounters:
    """Event counters for one core.  All fields are monotonically
    non-decreasing within a run."""

    __slots__ = COUNTER_FIELDS + ("core_id",)

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        for field in COUNTER_FIELDS:
            setattr(self, field, 0)

    def snapshot(self) -> Tuple[int, ...]:
        # Tuple literal in COUNTER_FIELDS order (tests pin the
        # correspondence); every ct_start takes a snapshot, so this path
        # avoids the genexpr/getattr machinery of the generic form.
        return (
            self.l1_hits, self.l2_hits, self.l3_hits, self.remote_hits,
            self.dram_loads, self.stores, self.invalidations,
            self.lock_acquires, self.lock_spins, self.migrations_in,
            self.migrations_out, self.idle_cycles, self.busy_cycles,
            self.mem_cycles, self.ops_completed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CoreCounters(core={self.core_id}, "
                f"dram={self.dram_loads}, idle={self.idle_cycles}, "
                f"busy={self.busy_cycles})")


def operation_misses(bank: CoreCounters,
                     entry: Tuple[int, ...]) -> Tuple[int, int]:
    """``(expensive misses, loads)`` counted by ``bank`` since ``entry``,
    a snapshot of it.

    An operation's loads are its line loads from every source level;
    its expensive misses are those served beyond the chip's caches —
    remote fetches and DRAM loads — since those are what migration can
    beat (§4).
    """
    l1, l2, l3, remote, dram = entry[:5]
    expensive = bank.remote_hits - remote + bank.dram_loads - dram
    return expensive, (expensive + bank.l1_hits - l1 + bank.l2_hits - l2
                       + bank.l3_hits - l3)


def aggregate(banks: List[CoreCounters]) -> Dict[str, int]:
    """Sum counters across cores (for machine-wide reporting)."""
    totals = {field: 0 for field in COUNTER_FIELDS}
    for bank in banks:
        for field in COUNTER_FIELDS:
            totals[field] += getattr(bank, field)
    return totals
