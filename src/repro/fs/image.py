"""Building populated FAT images.

:class:`FatFilesystem` assembles an image with the directory structure the
paper's benchmark uses: N directories, each holding M files of 32-byte
entries, names generated deterministically so a workload can pick
``(directory index, file index)`` and reconstruct the name it must
resolve.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import FilesystemError
from repro.fs.directory import (ATTR_ARCHIVE, ATTR_DIRECTORY, DirEntry,
                                FatDirectory)
from repro.fs.fat import DIR_ENTRY_SIZE, FatImage, FatParams
from repro.fs.names import dir_name, file_name


class FatFilesystem:
    """A FAT image plus handles on its directories."""

    def __init__(self, params: Optional[FatParams] = None) -> None:
        self.params = params or FatParams()
        self.image = FatImage(self.params)
        self.directories: Dict[str, FatDirectory] = {}
        self._root_used = 0

    # ------------------------------------------------------------------
    # structure building
    # ------------------------------------------------------------------

    def mkdir(self, name: str, capacity_entries: int) -> FatDirectory:
        """Create a directory able to hold ``capacity_entries`` entries."""
        if name in self.directories:
            raise FilesystemError(f"directory {name} exists")
        if self._root_used >= self.params.root_entries:
            raise FilesystemError("root directory is full")
        nbytes = capacity_entries * DIR_ENTRY_SIZE
        n_clusters = max(1, -(-nbytes // self.params.cluster_bytes))
        first_cluster = self.image.alloc_chain(n_clusters)
        # Root directory entry for the new directory.
        root_offset = (self.params.root_dir_offset
                       + self._root_used * DIR_ENTRY_SIZE)
        entry = DirEntry(name, ATTR_DIRECTORY, first_cluster, 0)
        self.image.write(root_offset, entry.encode())
        self._root_used += 1
        directory = FatDirectory(self.image, name, first_cluster,
                                 capacity_entries)
        self.directories[name] = directory
        return directory

    # ------------------------------------------------------------------
    # lookups (byte-accurate reference path)
    # ------------------------------------------------------------------

    def lookup(self, directory_name: str, file_name_: str):
        """Resolve ``file_name_`` in ``directory_name``.

        Returns (index, :class:`DirEntry`).  Raises
        :class:`~repro.errors.FilesystemError` when either is missing.
        The byte-accurate reference the simulation's index-based lookups
        are checked against; its users are tests
        (``tests/test_fs_image.py::test_lookup_index_matches_creation_order``
        and ``TestBenchmarkImage::test_every_file_resolvable``).
        """
        directory = self.directories.get(directory_name)
        if directory is None:
            raise FilesystemError(f"no directory {directory_name}")
        found = directory.search(file_name_)
        if found is None:
            raise FilesystemError(
                f"{file_name_} not found in {directory_name}")
        return found

    # ------------------------------------------------------------------
    # canonical benchmark image
    # ------------------------------------------------------------------

    @classmethod
    def build_benchmark_image(cls, n_dirs: int, files_per_dir: int,
                              cluster_bytes: int = 4096) -> "FatFilesystem":
        """The paper's benchmark tree: ``n_dirs`` directories of
        ``files_per_dir`` files each, names from
        :func:`repro.fs.names.dir_name` / :func:`~repro.fs.names.file_name`.

        Every directory holds the same entries, so their block is encoded
        once and written into each directory one slice per extent.
        """
        if n_dirs < 1 or files_per_dir < 1:
            raise FilesystemError("need at least one directory and file")
        data_bytes = n_dirs * files_per_dir * DIR_ENTRY_SIZE
        params = FatParams.sized_for(
            data_bytes + n_dirs * cluster_bytes,  # per-dir rounding slack
            root_entries=max(512, n_dirs),
            cluster_bytes=cluster_bytes)
        fs = cls(params)
        block = b"".join(DirEntry(file_name(f), ATTR_ARCHIVE, 0, 0).encode()
                         for f in range(files_per_dir))
        for d in range(n_dirs):
            fs.mkdir(dir_name(d), files_per_dir).write_entries(block)
        return fs

    def directory_list(self) -> List[FatDirectory]:
        return [self.directories[name] for name in sorted(self.directories)]

    @property
    def total_entry_bytes(self) -> int:
        """Total directory-content bytes (Figure 4's x-axis quantity)."""
        return sum(d.bytes_used for d in self.directories.values())
