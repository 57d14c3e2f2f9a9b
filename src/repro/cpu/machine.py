"""Assembly of a complete simulated machine.

:class:`Machine` wires a :class:`~repro.cpu.topology.MachineSpec` into
concrete parts: the memory system (caches, coherence, DRAM, interconnect),
one :class:`~repro.cpu.core.Core` per hardware core, and a shared simulated
address space for workloads to allocate data in.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.core import Core
from repro.cpu.topology import MachineSpec
from repro.errors import ConfigError
from repro.mem.layout import AddressSpace
from repro.mem.system import MemorySystem


class Machine:
    """A ready-to-run simulated multicore machine."""

    def __init__(self, spec: Optional[MachineSpec] = None) -> None:
        self.spec = spec or MachineSpec.amd16()
        self.spec.validate()
        self.memory = MemorySystem(self.spec)
        self.cores: List[Core] = [
            Core(core_id, self.spec.chip_of(core_id),
                 self.memory.counters[core_id])
            for core_id in range(self.spec.n_cores)
        ]
        self.address_space = AddressSpace(line_size=self.spec.line_size)

    @property
    def n_cores(self) -> int:
        return self.spec.n_cores

    def core(self, core_id: int) -> Core:
        if not 0 <= core_id < len(self.cores):
            raise ConfigError(f"no core {core_id} on {self.spec.name}")
        return self.cores[core_id]

    def cores_of_chip(self, chip_id: int) -> List[Core]:
        return [self.cores[i] for i in self.spec.cores_of_chip(chip_id)]

    @property
    def now(self) -> int:
        """Latest core clock (the machine-wide notion of elapsed time)."""
        return max(core.time for core in self.cores)

    def total_ops(self) -> int:
        return sum(bank.ops_completed for bank in self.memory.counters)

    def throughput(self, horizon_cycles: Optional[int] = None) -> float:
        """Completed operations per *second* of simulated time."""
        horizon = horizon_cycles if horizon_cycles is not None else self.now
        if horizon <= 0:
            return 0.0
        return self.total_ops() / self.spec.seconds(horizon)

    def settle_idle(self, horizon: Optional[int] = None) -> None:
        """Account trailing idle time on every core (end of a run)."""
        at = horizon if horizon is not None else self.now
        for core in self.cores:
            core.settle_idle(at)

    def __repr__(self) -> str:
        return (f"Machine({self.spec.name}: {self.spec.n_chips} chips x "
                f"{self.spec.cores_per_chip} cores)")
