"""The paper's directory-lookup workload (Figures 1 and 3).

One thread per core repeatedly resolves a randomly chosen file name in a
randomly chosen directory.  Directories hold ``files_per_dir`` 32-byte
entries (1,000 in the paper); resolution is a linear scan under the
directory's spin lock, bracketed by CoreTime annotations (Figure 3).  The
thread scheduler leaves the annotations inert, so its baseline runs the
same program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.cpu.machine import Machine
from repro.errors import ConfigError
from repro.fs.efsl import EfslFat
from repro.fs.fat import DIR_ENTRY_SIZE
from repro.fs.image import FatFilesystem
from repro.sim.rng import make_rng
from repro.threads.program import Compute
from repro.workloads.popularity import Popularity, popularity_for_spec


@dataclass(frozen=True)
class DirWorkloadSpec:
    """Parameters of the directory-lookup benchmark."""

    n_dirs: int = 64
    #: Entries per directory (paper: 1,000 entries of 32 bytes).
    files_per_dir: int = 1000
    #: Cycles of non-memory work between lookups (random number
    #: generation and loop overhead in Figure 1).
    think_cycles: int = 100
    #: "uniform" (Fig. 4a), "oscillating" (Fig. 4b) or "zipf".
    popularity: str = "uniform"
    #: Square-wave period for the oscillating distribution, in cycles.
    oscillation_period: int = 2_000_000
    #: Rotate the contracted window each period (harder rebalancing).
    oscillation_rotate: bool = False
    zipf_s: float = 1.0
    seed: int = 42
    cluster_bytes: int = 4096
    #: Cooperative threads multiplexed on each core.  The paper starts
    #: one application thread per core, but its runtime "continues to
    #: execute other threads in its run queue" while one migrates; a few
    #: threads per core give the run queues something to absorb migration
    #: arrival variance with (see DESIGN.md §5).
    threads_per_core: int = 4

    @property
    def total_data_bytes(self) -> int:
        """Total size of all directory contents (Figure 4's x-axis)."""
        return self.n_dirs * self.files_per_dir * DIR_ENTRY_SIZE

    def validate(self) -> None:
        if self.n_dirs < 1 or self.files_per_dir < 1:
            raise ConfigError("need at least one directory and file")
        if self.think_cycles < 0:
            raise ConfigError("think_cycles must be >= 0")

    @classmethod
    def scaled(cls, factor: int = 8, **overrides: object) \
            -> "DirWorkloadSpec":
        """Directories scaled to match :meth:`MachineSpec.scaled`.

        Shrinking entries-per-directory by the same factor as the cache
        capacities preserves the directories-per-cache ratio that shapes
        Figure 4.
        """
        fields = {
            "files_per_dir": max(16, 1000 // factor),
            "cluster_bytes": max(512, 4096 // factor),
            # Think time is per-operation work; scale it with the
            # operation so it keeps the same relative weight.
            "think_cycles": max(10, 100 // factor),
        }
        fields.update(overrides)  # type: ignore[arg-type]
        spec = cls(**fields)  # type: ignore[arg-type]
        spec.validate()
        return spec


class DirectoryLookupWorkload:
    """Builds the FAT image and per-core lookup programs."""

    def __init__(self, machine: Machine, spec: DirWorkloadSpec,
                 popularity: Optional[Popularity] = None) -> None:
        spec.validate()
        self.machine = machine
        self.spec = spec
        fs = FatFilesystem.build_benchmark_image(
            spec.n_dirs, spec.files_per_dir,
            cluster_bytes=spec.cluster_bytes)
        self.efsl = EfslFat(machine, fs)
        self.popularity = popularity or popularity_for_spec(
            spec.popularity, spec.n_dirs,
            zipf_s=spec.zipf_s, seed=spec.seed,
            period_cycles=spec.oscillation_period,
            rotate=spec.oscillation_rotate)
        self.resolutions = 0

    # ------------------------------------------------------------------

    def make_program(self, core_id: int, lane: int = 0) -> Iterator:
        """The Figure 3 thread loop for one thread homed on
        ``core_id`` (``lane`` distinguishes threads sharing a core)."""
        spec = self.spec
        efsl = self.efsl
        dirs = efsl.directories
        popularity = self.popularity
        rng = make_rng(spec.seed, "dirlookup", core_id, lane)
        core = self.machine.cores[core_id]
        files_per_dir = spec.files_per_dir
        think = Compute(spec.think_cycles) if spec.think_cycles else None

        def program() -> Iterator:
            while True:
                if think is not None:
                    yield think
                directory = dirs[popularity.pick(rng, core.time)]
                file_index = rng.randrange(files_per_dir)
                yield from efsl.search_items_by_index(directory, file_index)
                self.resolutions += 1

        return program()

    def spawn_all(self, simulator) -> list:
        """``threads_per_core`` lookup threads on every core."""
        threads = []
        for lane in range(self.spec.threads_per_core):
            for core_id in range(self.machine.n_cores):
                threads.append(simulator.spawn(
                    self.make_program(core_id, lane),
                    f"lookup-{lane}-{core_id}", core_id=core_id))
        return threads
