"""Inter-chip interconnect traffic ledger.

The AMD machine's four chips sit on a square interconnect carrying
coherence broadcasts and point-to-point cache-line transfers.  This
module counts the messages on each link, so experiments can report
coherence traffic — the resource the paper warns "can saturate system
interconnects".  It prices nothing: :class:`repro.mem.system.MemorySystem`
builds per-chip rows of hop-distance costs (from
:class:`repro.cpu.topology.LatencySpec`) once, and counts each remote
read and invalidation on the link its row names.
"""

from __future__ import annotations

from typing import Dict, Tuple


class Interconnect:
    """Per-link ledger of chip-to-chip messages."""

    __slots__ = ("transfers", "invalidations", "context_transfers")

    def __init__(self) -> None:
        #: (src_chip, dst_chip) -> cache-line transfers carried.
        self.transfers: Dict[Tuple[int, int], int] = {}
        #: (src_chip, dst_chip) -> invalidation messages carried.
        self.invalidations: Dict[Tuple[int, int], int] = {}
        #: (src_chip, dst_chip) -> thread-context lines carried
        #: (migration payload, kept separate from data coherence traffic).
        self.context_transfers: Dict[Tuple[int, int], int] = {}

    def count_migration(self, from_chip: int, to_chip: int,
                        context_lines: int = 4) -> None:
        """Account a thread-context transfer (a migration's payload —
        saved registers and hot stack lines) as interconnect traffic."""
        if from_chip != to_chip:
            key = (from_chip, to_chip)
            self.context_transfers[key] = \
                self.context_transfers.get(key, 0) + context_lines

    @property
    def total_transfers(self) -> int:
        return sum(self.transfers.values())

    @property
    def total_invalidations(self) -> int:
        return sum(self.invalidations.values())

    @property
    def total_context_lines(self) -> int:
        return sum(self.context_transfers.values())

    def data_messages(self) -> int:
        """Coherence traffic proper: line transfers and invalidations."""
        return self.total_transfers + self.total_invalidations

    def cross_chip_messages(self) -> int:
        """All messages that crossed chip boundaries."""
        return (self.total_transfers + self.total_invalidations
                + self.total_context_lines)
