"""Machine topology and timing specification.

The paper evaluates CoreTime on a 16-core AMD machine: four quad-core 2 GHz
Opteron chips connected by a square interconnect.  Each core has private L1
and L2 caches and the four cores of a chip share an L3.  The published
latencies are:

======================  =========
level                   cycles
======================  =========
L1 hit                  3
L2 hit                  14
L3 hit                  75
remote cache, same chip 127
remote, most distant    336
======================  =========

:class:`MachineSpec` captures all of that plus the knobs our simulator adds
(DRAM bandwidth, stream-prefetch discount, migration cost).  Three presets
are provided:

* :meth:`MachineSpec.amd16` — the paper's machine, full size.
* :meth:`MachineSpec.scaled` — the same machine with all capacities divided
  by a scale factor, preserving every ratio that shapes the results while
  keeping pure-Python simulations fast.
* :meth:`MachineSpec.future` — the §6.1 thought experiment: more cores,
  larger caches, relatively scarcer off-chip bandwidth and cheaper
  migration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigError

#: Cache line size used throughout the simulator (bytes).
DEFAULT_LINE_SIZE = 64


@dataclass(frozen=True)
class LatencySpec:
    """Access latencies in cycles, following the paper's Table in §5."""

    l1: int = 3
    l2: int = 14
    l3: int = 75
    #: Fetch from the cache of another core on the same chip.
    remote_same_chip: int = 127
    #: Added per interconnect hop when fetching from another chip's cache.
    remote_hop: int = 60
    #: Effective per-line cost of a remote-cache fetch that continues a
    #: sequential stream (the prefetcher pipelines coherent reads much as
    #: it pipelines DRAM reads).
    remote_stream: int = 70
    #: DRAM access through the local memory controller.
    dram_base: int = 230
    #: Added per interconnect hop to a remote DRAM bank (336 at 2 hops).
    dram_hop: int = 53
    #: Effective per-line cost of a DRAM access that continues a sequential
    #: stream (hardware prefetcher hides most of the latency).
    dram_stream: int = 55
    #: Cycles a line transfer occupies a memory controller; models off-chip
    #: bandwidth (64 B at ~8 B/cycle-equivalent by default).
    dram_occupancy: int = 8
    #: Cost charged to a store that must invalidate remote copies.
    invalidate: int = 100

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise ConfigError(f"latency {field.name} must be >= 0, got {value}")
        if not (self.l1 <= self.l2 <= self.l3):
            raise ConfigError("expected l1 <= l2 <= l3 latencies")


@dataclass(frozen=True)
class MachineSpec:
    """Complete description of a simulated multicore machine."""

    name: str = "amd16"
    n_chips: int = 4
    cores_per_chip: int = 4
    freq_hz: float = 2e9
    line_size: int = DEFAULT_LINE_SIZE
    #: Private per-core capacities and the per-chip shared L3, in bytes.
    l1_bytes: int = 64 * 1024
    l2_bytes: int = 512 * 1024
    l3_bytes: int = 2 * 1024 * 1024
    latency: LatencySpec = dataclasses.field(default_factory=LatencySpec)
    #: Cost of migrating a thread between cores (paper: measured 2000).
    migration_cost: int = 2000
    #: Destination cores notice pending migrations instantly by default;
    #: a positive value quantises arrivals to the polling grid (§4).
    poll_interval: int = 0
    #: Cycles a failed spin-lock attempt waits before retrying.
    spin_backoff: int = 50
    #: Per-core compute-speed factors for §6.1's heterogeneous-cores
    #: scenario: a factor of 2.0 executes Compute work in half the
    #: cycles.  None means homogeneous (every core 1.0).  Memory
    #: latencies are properties of the fabric and do not scale.
    core_speeds: Optional[Tuple[float, ...]] = None

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    @property
    def n_cores(self) -> int:
        return self.n_chips * self.cores_per_chip

    @property
    def l1_lines(self) -> int:
        return self.l1_bytes // self.line_size

    @property
    def l2_lines(self) -> int:
        return self.l2_bytes // self.line_size

    @property
    def l3_lines(self) -> int:
        return self.l3_bytes // self.line_size

    @property
    def onchip_bytes(self) -> int:
        """Aggregate cache capacity the paper counts as "on-chip memory".

        The paper counts L2 and L3 only (16 MB = 4 x 2 MB L3 + 16 x 512 KB
        L2); our cache levels are exclusive so the sum is attainable.
        """
        return self.n_cores * self.l2_bytes + self.n_chips * self.l3_bytes

    @property
    def per_core_budget_bytes(self) -> int:
        """Cache capacity CoreTime may pack objects into, per core.

        A core owns its private L2 plus an even share of its chip's L3.
        """
        return self.l2_bytes + self.l3_bytes // self.cores_per_chip

    def chip_of(self, core_id: int) -> int:
        """Chip index owning ``core_id``."""
        return core_id // self.cores_per_chip

    def speed_of(self, core_id: int) -> float:
        """Compute-speed factor of ``core_id`` (1.0 when homogeneous)."""
        if self.core_speeds is None:
            return 1.0
        return self.core_speeds[core_id]

    def cores_of_chip(self, chip_id: int) -> range:
        """Core ids located on ``chip_id``."""
        start = chip_id * self.cores_per_chip
        return range(start, start + self.cores_per_chip)

    def chip_distance(self, chip_a: int, chip_b: int) -> int:
        """Interconnect hops between two chips on the square interconnect.

        The four chips sit on the corners of a square: adjacent corners are
        one hop apart, diagonal corners two.  Machines with a different chip
        count fall back to a ring distance, which preserves the property
        that some chips are farther than others.
        """
        if chip_a == chip_b:
            return 0
        if self.n_chips == 4:
            # Corners 0-1-3-2-0 form the square's edges; 0-3 and 1-2 are
            # the diagonals.
            return 2 if (chip_a ^ chip_b) == 3 else 1
        ring = abs(chip_a - chip_b)
        return min(ring, self.n_chips - ring)

    def seconds(self, cycles: float) -> float:
        """Convert simulated cycles to seconds at this machine's frequency."""
        return cycles / self.freq_hz

    def validate(self) -> None:
        if self.n_chips < 1 or self.cores_per_chip < 1:
            raise ConfigError("machine needs at least one chip and one core")
        if self.line_size < 8 or self.line_size & (self.line_size - 1):
            raise ConfigError("line_size must be a power of two >= 8")
        for label, size in (("l1", self.l1_bytes), ("l2", self.l2_bytes),
                            ("l3", self.l3_bytes)):
            if size < self.line_size:
                raise ConfigError(f"{label}_bytes smaller than one line")
        if self.freq_hz <= 0:
            raise ConfigError("freq_hz must be positive")
        if self.migration_cost < 0 or self.poll_interval < 0:
            raise ConfigError("migration_cost/poll_interval must be >= 0")
        if self.core_speeds is not None:
            if len(self.core_speeds) != self.n_cores:
                raise ConfigError(
                    f"core_speeds has {len(self.core_speeds)} entries "
                    f"for {self.n_cores} cores")
            if any(speed <= 0 for speed in self.core_speeds):
                raise ConfigError("core speeds must be positive")
        self.latency.validate()

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------

    @classmethod
    def amd16(cls, **overrides: object) -> "MachineSpec":
        """The paper's 16-core AMD machine (§5, Hardware)."""
        spec = cls(**overrides) if overrides else cls()
        spec.validate()
        return spec

    @classmethod
    def scaled(cls, factor: int = 8, **overrides: object) -> "MachineSpec":
        """The AMD machine with capacities divided by ``factor``.

        Latencies, core counts and migration cost are untouched; only cache
        capacities shrink.  Workloads built with the matching scale factor
        (see :class:`repro.workloads.dirlookup.DirWorkloadSpec.scaled`)
        exercise identical capacity ratios at a fraction of the wall-clock
        cost.
        """
        if factor < 1:
            raise ConfigError("scale factor must be >= 1")
        base = cls()
        fields = {
            "name": f"amd16/scaled{factor}",
            "l1_bytes": max(base.line_size * 4, base.l1_bytes // factor),
            "l2_bytes": max(base.line_size * 8, base.l2_bytes // factor),
            "l3_bytes": max(base.line_size * 16, base.l3_bytes // factor),
            # Operations shrink with the caches (scaled workloads scan
            # 1/factor as many lines), so the migration cost must shrink
            # too to preserve the migration-cost : operation-cost ratio
            # that decides whether O2 scheduling pays off.
            "migration_cost": max(100, base.migration_cost // factor),
            "spin_backoff": max(10, base.spin_backoff // 2),
        }
        fields.update(overrides)  # type: ignore[arg-type]
        spec = dataclasses.replace(base, **fields)  # type: ignore[arg-type]
        spec.validate()
        return spec

    @classmethod
    def tiny(cls, **overrides: object) -> "MachineSpec":
        """A 2-chip, 2-cores-per-chip machine with very small caches.

        Small enough that capacity effects appear within a few hundred
        accesses, with the paper's latency structure intact.  This is the
        one topology factory shared by the test suite
        (``tests/helpers.tiny_spec``) and the fuzzer
        (:mod:`repro.verify.fuzz`), so their machine-builder defaults
        cannot drift apart.
        """
        fields = {
            "name": "tiny", "n_chips": 2, "cores_per_chip": 2,
            "l1_bytes": 512, "l2_bytes": 2048, "l3_bytes": 8192,
            "migration_cost": 200, "spin_backoff": 20,
        }
        fields.update(overrides)  # type: ignore[arg-type]
        spec = cls(**fields)  # type: ignore[arg-type]
        spec.validate()
        return spec

    @classmethod
    def future(cls, n_chips: int = 8, cores_per_chip: int = 8,
               **overrides: object) -> "MachineSpec":
        """A §6.1 "future multicore": more cores, bigger caches, scarcer
        off-chip bandwidth, cheaper migration (active messages)."""
        base = cls()
        fields = {
            "name": f"future{n_chips}x{cores_per_chip}",
            "n_chips": n_chips,
            "cores_per_chip": cores_per_chip,
            "l2_bytes": 1024 * 1024,
            "l3_bytes": 8 * 1024 * 1024,
            "latency": dataclasses.replace(
                base.latency,
                dram_base=400, dram_hop=60, dram_stream=120,
                dram_occupancy=32,
            ),
            "migration_cost": 500,
        }
        fields.update(overrides)  # type: ignore[arg-type]
        spec = dataclasses.replace(base, **fields)  # type: ignore[arg-type]
        spec.validate()
        return spec
