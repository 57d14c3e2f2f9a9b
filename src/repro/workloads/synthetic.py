"""Generic object-operation workloads.

The directory benchmark is one instance of the pattern the paper cares
about: operations that scan a sizeable object.  :class:`ObjectOpsWorkload`
generates the same pattern over raw memory objects without the file-system
substrate, with extra knobs the ablation benchmarks need:

* a write fraction (read/write sharing → coherence invalidations),
* paired objects (operations touching object *i* then its partner — the
  §6.2 object-clustering scenario),
* per-object popularity (uniform or Zipf).

It is also the workload unit tests use: small, self-contained, no FAT
image to build.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.core.object_table import CtObject
from repro.cpu.machine import Machine
from repro.errors import ConfigError
from repro.sim.rng import make_rng
from repro.threads.program import (Acquire, Compute, CtEnd, CtStart,
                                   Release, Scan, Store)
from repro.threads.sync import SpinLock
from repro.workloads.popularity import Popularity, popularity_for_spec


@dataclass(frozen=True)
class ObjectOpsSpec:
    """Parameters for the generic object-operation workload."""

    n_objects: int = 32
    object_bytes: int = 8192
    think_cycles: int = 100
    #: Fraction of operations that write one line of the object.
    write_fraction: float = 0.0
    #: Probability that an operation is immediately followed by one on
    #: the object's partner (pair index ^ 1) — the clustering scenario.
    pair_probability: float = 0.0
    #: Declare each pair as a cluster (``cluster_key`` ``pair-N``) when
    #: ``pair_probability`` > 0; False leaves the pairs undeclared, for
    #: CoreTime's auto-clustering to learn (E10).
    declare_pairs: bool = True
    popularity: str = "uniform"
    zipf_s: float = 1.0
    with_locks: bool = True
    seed: int = 7
    #: Scan only this fraction of the object per op (1.0 = full scan).
    scan_fraction: float = 1.0
    #: Threads pinned per core (>1 keeps run queues non-empty, which is
    #: what exercises the time-sharing schedulers' preemption paths).
    threads_per_core: int = 1

    def validate(self) -> None:
        if self.n_objects < 1 or self.object_bytes < 1:
            raise ConfigError("need at least one object with one byte")
        if self.threads_per_core < 1:
            raise ConfigError("threads_per_core must be >= 1")
        for name in ("write_fraction", "pair_probability", "scan_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be within [0, 1]")

    def replace(self, **changes: object) -> "ObjectOpsSpec":
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    @property
    def total_bytes(self) -> int:
        return self.n_objects * self.object_bytes


class ObjectOpsWorkload:
    """Allocates objects and builds per-core operation loops."""

    def __init__(self, machine: Machine, spec: ObjectOpsSpec,
                 popularity: Optional[Popularity] = None) -> None:
        spec.validate()
        self.machine = machine
        self.spec = spec
        space = machine.address_space
        self.objects: List[CtObject] = []
        self.locks: List[Optional[SpinLock]] = []
        for index in range(spec.n_objects):
            region = space.alloc(f"obj{index}", spec.object_bytes)
            cluster_key = (f"pair-{index // 2}"
                           if spec.pair_probability > 0
                           and spec.declare_pairs else None)
            obj = CtObject(f"obj{index}", region.base, spec.object_bytes,
                           read_only=spec.write_fraction == 0.0,
                           cluster_key=cluster_key)
            self.objects.append(obj)
            self.locks.append(
                SpinLock.allocate(space, f"obj{index}")
                if spec.with_locks else None)
        self.popularity = popularity or popularity_for_spec(
            spec.popularity, spec.n_objects,
            zipf_s=spec.zipf_s, seed=spec.seed)

    # ------------------------------------------------------------------

    def _one_op(self, index: int, rng) -> Iterator:
        spec = self.spec
        obj = self.objects[index]
        lock = self.locks[index]
        scan_bytes = max(1, int(spec.object_bytes * spec.scan_fraction))
        yield CtStart(obj)
        if lock is not None:
            yield Acquire(lock)
        yield Scan(obj.addr, scan_bytes, 2)
        if spec.write_fraction and rng.random() < spec.write_fraction:
            line = self.machine.spec.line_size
            offset = rng.randrange(max(1, scan_bytes // line)) * line
            yield Store(obj.addr + offset)
        if lock is not None:
            yield Release(lock)
        yield CtEnd()

    def make_program(self, core_id: int, lane: int = 0) -> Iterator:
        spec = self.spec
        # Lane 0 keeps the historical RNG label so single-thread-per-core
        # runs (every pre-existing workload) stay byte-identical.
        rng = (make_rng(spec.seed, "objops", core_id) if lane == 0
               else make_rng(spec.seed, "objops", core_id, lane))
        core = self.machine.cores[core_id]
        popularity = self.popularity
        think = Compute(spec.think_cycles) if spec.think_cycles else None

        def program() -> Iterator:
            while True:
                if think is not None:
                    yield think
                index = popularity.pick(rng, core.time)
                yield from self._one_op(index, rng)
                partner = index ^ 1
                if (spec.pair_probability and partner < spec.n_objects
                        and rng.random() < spec.pair_probability):
                    yield from self._one_op(partner, rng)

        return program()

    def spawn_all(self, simulator) -> list:
        if self.spec.threads_per_core == 1:
            return simulator.spawn_per_core(self.make_program, "objops")
        threads = []
        for lane in range(self.spec.threads_per_core):
            for core_id in range(self.machine.n_cores):
                name = (f"objops-{core_id}" if lane == 0
                        else f"objops-{core_id}.{lane}")
                threads.append(simulator.spawn(
                    self.make_program(core_id, lane), name,
                    core_id=core_id))
        return threads
