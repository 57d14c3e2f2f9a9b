"""Inter-chip interconnect model.

The AMD machine's four chips sit on a square interconnect carrying
coherence broadcasts and point-to-point cache-line transfers.  We charge
hop-distance latencies (from :class:`repro.cpu.topology.LatencySpec`) and
count the messages per link so experiments can report coherence traffic —
the resource the paper warns "can saturate system interconnects".
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cpu.topology import MachineSpec


class Interconnect:
    """Latency oracle plus traffic accounting for chip-to-chip messages."""

    __slots__ = ("spec", "transfers", "invalidations", "context_transfers",
                 "_remote_cost", "_stream_cost", "_inval_cost")

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        #: (src_chip, dst_chip) -> cache-line transfers carried.
        self.transfers: Dict[Tuple[int, int], int] = {}
        #: (src_chip, dst_chip) -> invalidation messages carried.
        self.invalidations: Dict[Tuple[int, int], int] = {}
        #: (src_chip, dst_chip) -> thread-context lines carried
        #: (migration payload, kept separate from data coherence traffic).
        self.context_transfers: Dict[Tuple[int, int], int] = {}
        # Hop costs depend only on the chip pair; precompute every pair
        # once so the per-miss path is two list indexes, not a distance
        # computation plus latency-spec attribute chain.  The memory
        # system's per-chip rings copy the remote and stream costs.
        latency = spec.latency
        n = spec.n_chips
        self._remote_cost = [
            [latency.remote_same_chip
             + latency.remote_hop * spec.chip_distance(a, b)
             for b in range(n)] for a in range(n)]
        self._stream_cost = [
            [latency.remote_stream
             + latency.remote_hop * spec.chip_distance(a, b) // 3
             for b in range(n)] for a in range(n)]
        self._inval_cost = [
            [latency.invalidate
             + latency.remote_hop * spec.chip_distance(a, b)
             for b in range(n)] for a in range(n)]

    def remote_cache_latency(self, from_chip: int, holder_chip: int) -> int:
        """Latency to fetch a line from a cache on ``holder_chip``."""
        if from_chip != holder_chip:
            key = (holder_chip, from_chip)
            self.transfers[key] = self.transfers.get(key, 0) + 1
        return self._remote_cost[from_chip][holder_chip]

    def invalidate_latency(self, from_chip: int, holder_chip: int) -> int:
        """Latency contribution of invalidating a copy on ``holder_chip``."""
        if from_chip != holder_chip:
            key = (from_chip, holder_chip)
            self.invalidations[key] = self.invalidations.get(key, 0) + 1
        return self._inval_cost[from_chip][holder_chip]

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

    def reset(self) -> None:
        self.transfers.clear()
        self.invalidations.clear()
        self.context_transfers.clear()
