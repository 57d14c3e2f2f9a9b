"""Global line-sharing directory (the coherence substrate).

Real AMD hardware locates remote copies with coherence broadcasts over the
square interconnect; we model the *outcome* of that protocol with a global
directory mapping each line to the holders that currently cache it.
The directory is how the simulator reproduces the two effects the paper
cares about:

* **replication** — a line read by many cores has many holders, consuming
  capacity in each (visible as shrinking effective on-chip data);
* **invalidation** — a store removes every remote copy, so read/write
  sharing generates interconnect traffic and subsequent remote misses.

Holder ids are small integers: ``0 .. n_cores-1`` identify the private
(L1+L2) hierarchy of each core, and ``n_cores + chip_id`` identifies a
chip's shared L3.  Like a full-map hardware directory's presence-bit
vector (Censier & Feautrier, 1978), each cached line's holders are one
``int`` mask: bit ``h`` is set while holder ``h`` has a copy.  An int
is immutable and untracked by the garbage collector, so every change of
a line's holders is one dict store.  Only
:class:`repro.mem.system.MemorySystem` mutates the directory, keeping it
consistent with actual cache contents; its load path stores masks
directly in ``_holders``.  Readers get frozensets of holder ids.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Tuple


def holder_ids(mask: int) -> List[int]:
    """The holder ids whose bits are set in ``mask``, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


class SharingDirectory:
    """Tracks, for every cached line, which holders have a copy."""

    __slots__ = ("n_cores", "_holders")

    def __init__(self, n_cores: int) -> None:
        self.n_cores = n_cores
        #: line -> holder mask (bit ``h`` set while holder ``h`` has a
        #: copy); an uncached line has no entry.
        self._holders: Dict[int, int] = {}

    # -- holder-id helpers ------------------------------------------------

    def l3_holder(self, chip_id: int) -> int:
        """Holder id for a chip's shared L3."""
        return self.n_cores + chip_id

    # -- membership --------------------------------------------------------

    def holders(self, line: int) -> FrozenSet[int]:
        """Immutable view of the holders of ``line`` (empty if uncached)."""
        return frozenset(holder_ids(self._holders.get(line, 0)))

    def items(self) -> Iterator[Tuple[int, FrozenSet[int]]]:
        """(line, holder-set view) pairs — the invariant checker walks
        these to reconcile the directory against actual cache contents."""
        return ((line, frozenset(holder_ids(mask)))
                for line, mask in self._holders.items())

    def __len__(self) -> int:
        return len(self._holders)
