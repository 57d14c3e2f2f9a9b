"""Global line-sharing directory (the coherence substrate).

Real AMD hardware locates remote copies with coherence broadcasts over the
square interconnect; we model the *outcome* of that protocol with a global
directory mapping each line to the set of holders that currently cache it.
The directory is how the simulator reproduces the two effects the paper
cares about:

* **replication** — a line read by many cores appears in many holder sets,
  consuming capacity in each (visible as shrinking effective on-chip data);
* **invalidation** — a store removes every remote copy, so read/write
  sharing generates interconnect traffic and subsequent remote misses.

Holder ids are small integers: ``0 .. n_cores-1`` identify the private
(L1+L2) hierarchy of each core, and ``n_cores + chip_id`` identifies a
chip's shared L3.  Only :class:`repro.mem.system.MemorySystem` mutates the
directory, keeping it consistent with actual cache contents; its load path
adds holders directly on ``_holders``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set


class SharingDirectory:
    """Tracks, for every cached line, which holders have a copy."""

    __slots__ = ("n_cores", "_holders")

    def __init__(self, n_cores: int) -> None:
        self.n_cores = n_cores
        self._holders: Dict[int, Set[int]] = {}

    # -- holder-id helpers ------------------------------------------------

    def l3_holder(self, chip_id: int) -> int:
        """Holder id for a chip's shared L3."""
        return self.n_cores + chip_id

    def is_l3_holder(self, holder: int) -> bool:
        return holder >= self.n_cores

    # -- membership --------------------------------------------------------

    def discard(self, line: int, holder: int) -> None:
        holders = self._holders.get(line)
        if holders is None:
            return
        holders.discard(holder)
        if not holders:
            del self._holders[line]

    def holders(self, line: int) -> FrozenSet[int]:
        """Immutable view of the holders of ``line`` (empty if uncached)."""
        holders = self._holders.get(line)
        return frozenset(holders) if holders else frozenset()

    def items(self) -> Iterable[tuple]:
        """(line, holder-set view) pairs — the invariant checker walks
        these to reconcile the directory against actual cache contents."""
        return self._holders.items()

    def clear(self) -> None:
        """Forget every holder, in place (keeps the dict's identity — the
        memory system's hot path holds a direct reference to it)."""
        self._holders.clear()

    def __len__(self) -> int:
        return len(self._holders)
