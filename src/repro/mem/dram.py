"""Off-chip DRAM model: latency plus memory-controller bandwidth.

The paper's core prediction is that compute will outgrow off-chip
bandwidth, so the simulator makes bandwidth an explicit, contendable
resource.  Each chip owns one :class:`MemoryController`; every line
fetched from that chip's DRAM bank adds ``dram_occupancy`` cycles of
demand, and requests are delayed by an M/D/1-style queueing term derived
from the controller's recent utilisation — so 16 cores streaming from
DRAM slow each other down, exactly the saturation effect CoreTime's
partitioning avoids.

Utilisation is tracked as an exponentially decayed demand sum rather than
an absolute ``busy-until`` timestamp: cores' clocks are only loosely
synchronised (scans execute atomically — see DESIGN.md), and a stateful
absolute reservation would let one core's in-flight scan appear to block
another core thousands of cycles into its past.  The decayed-load model
is immune to that skew, deterministic, and has the right limits: zero
delay when idle, unbounded-ish delay approaching saturation.

Sequential streams get a ``dram_stream`` per-line cost instead of the
full ``dram_base`` latency, modelling the hardware prefetcher that makes
linear directory scans cheaper than pointer chasing.

This module is the only code that prices a DRAM fetch: the bank
interleave, the raw latencies, the stream discount and the queueing all
live here, and both of the memory system's loops fetch a line with one
:meth:`Dram.load` call.
"""

from __future__ import annotations

from math import exp as _exp
from typing import List

from repro.cpu.topology import MachineSpec

#: Time constant (cycles) of the utilisation estimate's exponential decay.
UTILISATION_TAU = 4096.0
#: Utilisation is capped here so the queueing term stays finite; past
#: this point latency inflation throttles throughput to the controller's
#: capacity region.
UTILISATION_CAP = 0.97


class MemoryController:
    """One chip's memory controller / DRAM channel."""

    __slots__ = ("chip_id", "occupancy", "clock", "demand",
                 "lines_served", "queued_cycles")

    def __init__(self, chip_id: int, occupancy: int) -> None:
        self.chip_id = chip_id
        self.occupancy = occupancy
        #: Monotone internal clock (max request time seen).
        self.clock = 0
        #: Exponentially decayed demand, in cycles of occupancy.
        self.demand = 0.0
        self.lines_served = 0
        self.queued_cycles = 0

    def service(self, now: int, transfer_latency: int) -> int:
        """Serve one line at time ``now``; return total latency in cycles.

        ``transfer_latency`` is the raw access latency (base or stream);
        a queueing delay proportional to rho/(1-rho) is added when the
        controller is loaded.
        """
        if now > self.clock:
            self.demand *= _exp((self.clock - now) / UTILISATION_TAU)
            self.clock = now
        self.demand += self.occupancy
        rho = self.demand / UTILISATION_TAU
        if rho > UTILISATION_CAP:
            rho = UTILISATION_CAP
        queue_delay = int(self.occupancy * rho / (1.0 - rho) * 0.5)
        self.lines_served += 1
        self.queued_cycles += queue_delay
        return queue_delay + transfer_latency


class Dram:
    """All memory controllers plus the home-bank mapping.

    Lines are interleaved across chips' DRAM banks by line number, as
    commodity systems interleave physical pages across controllers.
    """

    __slots__ = ("controllers", "_n_chips", "_raw_base", "_raw_stream")

    def __init__(self, spec: MachineSpec) -> None:
        self.controllers: List[MemoryController] = [
            MemoryController(chip, spec.latency.dram_occupancy)
            for chip in range(spec.n_chips)
        ]
        # Raw (pre-queueing) access latencies depend only on the
        # (requesting chip, home bank) pair; precompute both the demand
        # and streamed variants so the miss path skips the hop-distance
        # arithmetic.
        self._n_chips = spec.n_chips
        latency = spec.latency
        self._raw_base = [
            [latency.dram_base + latency.dram_hop * spec.chip_distance(a, b)
             for b in range(spec.n_chips)] for a in range(spec.n_chips)]
        self._raw_stream = [
            [latency.dram_stream + latency.dram_hop * spec.chip_distance(a, b)
             for b in range(spec.n_chips)] for a in range(spec.n_chips)]

    def load(self, line: int, from_chip: int, now: int,
             sequential: bool) -> int:
        """Fetch ``line`` from DRAM for a core on ``from_chip``.

        Returns the latency in cycles, including hop distance to the home
        bank and any controller queueing delay.
        """
        bank = line % self._n_chips
        raw = (self._raw_stream if sequential
               else self._raw_base)[from_chip][bank]
        return self.controllers[bank].service(now, raw)

    @property
    def total_lines_served(self) -> int:
        return sum(c.lines_served for c in self.controllers)

    @property
    def total_queued_cycles(self) -> int:
        return sum(c.queued_cycles for c in self.controllers)
