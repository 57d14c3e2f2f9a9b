"""EFSL-style file system bound to the simulated machine.

§5 of the paper: *"The file system is derived from the EFSL FAT
implementation.  We modified EFSL to use an in-memory image rather than
disk operations, to not use a buffer cache, and to have a
higher-performance inner loop for file name lookup.  We focused on
directory search, adding per-directory spin locks and CoreTime
annotations."*

:class:`EfslFat` is that adaptation for our simulator: it maps a
:class:`~repro.fs.image.FatFilesystem` image into the simulated address
space (the in-memory image), gives each directory a spin lock and a
:class:`~repro.core.object_table.CtObject`, and emits the annotated
instruction stream for a name lookup — lock, linear scan of real directory
bytes up to the matching entry, unlock — with every byte charged through
the cache model.  There is deliberately no buffer cache: every lookup
walks the directory, exactly as modified EFSL did.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

from repro.core.object_table import CtObject
from repro.cpu.machine import Machine
from repro.errors import FilesystemError
from repro.fs.directory import DirEntry, FatDirectory
from repro.fs.fat import DIR_ENTRY_SIZE
from repro.fs.image import FatFilesystem
from repro.threads.program import (Acquire, CtEnd, CtStart,
                                   Release, Scan)

#: Cycles to compare one 32-byte entry against the wanted name (a couple
#: of 8-byte compares plus loop overhead in the "higher-performance inner
#: loop").
DEFAULT_COMPARE_CYCLES = 3


class SimDirectory:
    """A directory as the simulator sees it: object + lock + extents."""

    __slots__ = ("fat_dir", "object", "lock", "extents")

    def __init__(self, fat_dir: FatDirectory, object_: CtObject, lock,
                 extents: List[tuple]) -> None:
        self.fat_dir = fat_dir
        self.object = object_
        self.lock = lock
        #: (simulated address, nbytes) runs covering the directory data.
        self.extents = extents

    @property
    def name(self) -> str:
        return self.fat_dir.name

    @property
    def n_entries(self) -> int:
        return self.fat_dir.n_entries


class EfslFat:
    """The paper's modified-EFSL file system on a simulated machine.

    Construction reads each directory's bytes once and decodes and checks
    each distinct directory content once (:meth:`_index_names`).
    """

    def __init__(self, machine: Machine, fs: FatFilesystem,
                 compare_cycles: int = DEFAULT_COMPARE_CYCLES,
                 region_name: str = "fat-image") -> None:
        self.machine = machine
        self.fs = fs
        self.compare_cycles = compare_cycles
        region = machine.address_space.alloc(region_name,
                                             len(fs.image.data))
        self.region = region
        line_size = machine.spec.line_size
        entries_per_line = max(1, line_size // DIR_ENTRY_SIZE)
        #: Fixed per-line compute charged while scanning entries.
        self.per_line_compute = compare_cycles * entries_per_line
        # Import here to avoid a package cycle at module import time.
        from repro.threads.sync import SpinLock

        self.directories: List[SimDirectory] = []
        # Directory contents already checked, for this image only: the
        # benchmark image's directories all hold the same bytes.
        checked: Set[bytes] = set()
        for fat_dir in fs.directory_list():
            extents = [(region.base + offset, nbytes)
                       for offset, nbytes in fat_dir.extents()]
            raw = fat_dir.read_entries()
            if raw not in checked:
                self._index_names(fat_dir.name, raw)
                checked.add(raw)
            obj = CtObject(f"dir:{fat_dir.name}", extents[0][0],
                           fat_dir.bytes_used, read_only=True)
            lock = SpinLock.allocate(machine.address_space,
                                     f"dirlock:{fat_dir.name}")
            self.directories.append(
                SimDirectory(fat_dir, obj, lock, extents))

    @staticmethod
    def _index_names(dir_name: str, raw: bytes) -> Dict[str, int]:
        """Decode a directory's used entries ``raw`` into name -> index.

        Construction runs it once per distinct directory content as the
        image validity check: a free slot below the used count, or a
        name held twice (which the byte-level search would resolve to
        its first slot), is refused.
        """
        names: Dict[str, int] = {}
        for index, start in enumerate(range(0, len(raw), DIR_ENTRY_SIZE)):
            entry = DirEntry.decode(raw[start:start + DIR_ENTRY_SIZE])
            if entry is None:
                raise FilesystemError(
                    f"{dir_name}: unexpected free slot at {index}")
            first = names.setdefault(entry.name, index)
            if first != index:
                raise FilesystemError(
                    f"{dir_name}: duplicate name {entry.name!r} at "
                    f"{index} (first at {first})")
        return names

    # ------------------------------------------------------------------
    # lookup instruction streams
    # ------------------------------------------------------------------

    def search_items_by_index(self, directory: SimDirectory,
                              index: int) -> Iterator:
        """Annotated lookup that will match at entry ``index``.

        The scan covers every entry up to and including the match — the
        linear search of the paper's Figure 1 inner loop — charged through
        the cache model extent by extent.
        """
        if not 0 <= index < directory.n_entries:
            raise FilesystemError(
                f"{directory.name}: no entry {index}")
        yield CtStart(directory.object)
        yield Acquire(directory.lock)
        remaining = (index + 1) * DIR_ENTRY_SIZE
        for addr, nbytes in directory.extents:
            chunk = min(remaining, nbytes)
            yield Scan(addr, chunk, self.per_line_compute)
            remaining -= chunk
            if remaining <= 0:
                break
        yield Release(directory.lock)
        yield CtEnd()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def total_entry_bytes(self) -> int:
        return self.fs.total_entry_bytes

    def __repr__(self) -> str:
        return (f"EfslFat({len(self.directories)} dirs, "
                f"{self.total_entry_bytes} entry bytes)")
