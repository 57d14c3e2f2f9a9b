"""A static web-server workload (the paper's motivating application).

§2 cites Veal & Foong [14]: directory-lookup-heavy request handling can
bottleneck a multicore web server.  This workload models one request end
to end, composing three object kinds with different sharing behaviour:

1. a **connection table** — small, read/write, touched by every request
   (the classic coherence hot spot);
2. a **directory lookup** — the paper's annotated linear search over the
   FAT image;
3. a **content read** — a streaming scan of the resolved file's data,
   read-only and Zipf-popular.

Each piece is a CoreTime object, so the O2 scheduler can pin the
connection table to one core (killing the invalidation storm), partition
directories, and spread content — all with the same mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.core.object_table import CtObject
from repro.cpu.machine import Machine
from repro.errors import ConfigError
from repro.fs.efsl import EfslFat
from repro.fs.image import FatFilesystem
from repro.sim.rng import make_rng
from repro.threads.program import (Acquire, Compute, CtEnd, CtStart,
                                   Release, Scan, Store)
from repro.threads.sync import SpinLock
from repro.workloads.popularity import popularity_for_spec


@dataclass(frozen=True)
class WebServerSpec:
    """Parameters of the simulated static web server."""

    n_dirs: int = 64
    files_per_dir: int = 125
    #: Bytes of file content streamed per request.
    content_bytes: int = 2048
    #: Size of the shared connection table.
    conn_table_bytes: int = 4096
    #: Zipf exponent for URL popularity.
    zipf_s: float = 1.0
    #: Protocol-parsing compute per request.
    parse_cycles: int = 150
    threads_per_core: int = 4
    seed: int = 11
    cluster_bytes: int = 512

    def validate(self) -> None:
        if self.n_dirs < 1 or self.files_per_dir < 1:
            raise ConfigError("need at least one directory and file")
        if self.content_bytes < 1 or self.conn_table_bytes < 1:
            raise ConfigError("content and connection table need bytes")


class WebServerWorkload:
    """Builds the server's data structures and per-core request loops."""

    def __init__(self, machine: Machine, spec: WebServerSpec) -> None:
        spec.validate()
        self.machine = machine
        self.spec = spec
        space = machine.address_space
        # The FAT image with the site's directory tree.
        fs = FatFilesystem.build_benchmark_image(
            spec.n_dirs, spec.files_per_dir,
            cluster_bytes=spec.cluster_bytes)
        self.efsl = EfslFat(machine, fs, region_name="webserver-image")
        # Shared connection table: one read/write object + lock.
        conn_region = space.alloc("conn-table", spec.conn_table_bytes)
        self.conn_table = CtObject("conn-table", conn_region.base,
                                   spec.conn_table_bytes, read_only=False)
        self.conn_lock = SpinLock.allocate(space, "conn-table")
        # Per-directory content blobs (a site's files, grouped by dir).
        self.content: List[CtObject] = []
        for index, directory in enumerate(self.efsl.directories):
            region = space.alloc(f"content{index}",
                                 spec.content_bytes * 8)
            self.content.append(CtObject(
                f"content:{directory.name}", region.base, region.size,
                read_only=True,
                cluster_key=f"site-{directory.name}"))
            # Directory and its content belong together (§6.2).
            directory.object.cluster_key = f"site-{directory.name}"
        self.popularity = popularity_for_spec(
            "zipf", spec.n_dirs, zipf_s=spec.zipf_s, seed=spec.seed)
        self.requests_served = 0

    # ------------------------------------------------------------------

    def _request_items(self, dir_index: int, file_index: int,
                       rng) -> Iterator:
        spec = self.spec
        directory = self.efsl.directories[dir_index]
        # 1. Accept/track the connection: a write into the shared table.
        yield CtStart(self.conn_table)
        yield Acquire(self.conn_lock)
        slot = rng.randrange(max(1, spec.conn_table_bytes // 64)) * 64
        yield Store(self.conn_table.addr + slot)
        yield Release(self.conn_lock)
        yield CtEnd()
        # 2. Parse the request.
        yield Compute(spec.parse_cycles)
        # 3. Resolve the path (the Figure 3 annotated lookup).
        yield from self.efsl.search_items_by_index(directory, file_index)
        # 4. Stream the content.
        content = self.content[dir_index]
        offset = (file_index * spec.content_bytes) % max(
            64, content.size - spec.content_bytes)
        yield CtStart(content)
        yield Scan(content.addr + offset, spec.content_bytes, 1)
        yield CtEnd()

    def make_program(self, core_id: int, lane: int = 0) -> Iterator:
        spec = self.spec
        rng = make_rng(spec.seed, "webserver", core_id, lane)
        popularity = self.popularity
        core = self.machine.cores[core_id]

        def program() -> Iterator:
            while True:
                dir_index = popularity.pick(rng, core.time)
                file_index = rng.randrange(spec.files_per_dir)
                yield from self._request_items(dir_index, file_index, rng)
                self.requests_served += 1

        return program()

    def spawn_all(self, simulator) -> list:
        threads = []
        for lane in range(self.spec.threads_per_core):
            for core_id in range(self.machine.n_cores):
                threads.append(simulator.spawn(
                    self.make_program(core_id, lane),
                    f"worker-{lane}-{core_id}", core_id=core_id))
        return threads
