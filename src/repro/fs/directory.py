"""FAT directory entries and directory handles.

A directory is the paper's *object*: a cluster chain holding 32-byte
entries that a lookup linearly scans.  :class:`DirEntry` is the on-disk
entry codec; :class:`FatDirectory` is the in-memory handle the file system
and the workloads use.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.errors import FilesystemError
from repro.fs.fat import DIR_ENTRY_SIZE, FatImage
from repro.fs.names import decode_name, encode_name

#: Attribute flags (subset of the FAT spec).
ATTR_DIRECTORY = 0x10
ATTR_ARCHIVE = 0x20

_ENTRY_STRUCT = struct.Struct("<11sB10xHHHI")
assert _ENTRY_STRUCT.size == DIR_ENTRY_SIZE


@dataclass(frozen=True)
class DirEntry:
    """One decoded 32-byte directory entry."""

    name: str
    attributes: int
    first_cluster: int
    size: int

    def encode(self) -> bytes:
        return _ENTRY_STRUCT.pack(encode_name(self.name), self.attributes,
                                  0, 0, self.first_cluster, self.size)

    @classmethod
    def decode(cls, raw: bytes) -> Optional["DirEntry"]:
        """Decode an entry; None for a never-used slot (name[0] == 0)."""
        if len(raw) != DIR_ENTRY_SIZE:
            raise FilesystemError(
                f"directory entry must be {DIR_ENTRY_SIZE} bytes")
        if raw[0] == 0:
            return None
        name, attributes, _, _, first_cluster, size = _ENTRY_STRUCT.unpack(raw)
        return cls(decode_name(name), attributes, first_cluster, size)


class FatDirectory:
    """Handle on one directory's cluster chain inside an image."""

    def __init__(self, image: FatImage, name: str, first_cluster: int,
                 capacity_entries: int) -> None:
        self.image = image
        self.name = name
        self.first_cluster = first_cluster
        self.capacity_entries = capacity_entries
        self.n_entries = 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    def extents(self) -> List[tuple]:
        """Contiguous (image_offset, nbytes) runs of this directory."""
        return self.image.chain_extents(self.first_cluster)

    @property
    def bytes_used(self) -> int:
        return self.n_entries * DIR_ENTRY_SIZE

    def entry_offset(self, index: int) -> int:
        """Image offset of entry ``index`` (walking the chain).

        Walks the chain on every call, so a chain corrupted since the last
        call is seen; :meth:`read_entries` and :meth:`write_entries` serve
        bulk work.
        """
        if not 0 <= index < self.capacity_entries:
            raise FilesystemError(
                f"{self.name}: entry {index} out of range")
        byte_index = index * DIR_ENTRY_SIZE
        for offset, nbytes in self.extents():
            if byte_index < nbytes:
                return offset + byte_index
            byte_index -= nbytes
        raise FilesystemError(f"{self.name}: chain shorter than capacity")

    def _runs(self, start: int, nbytes: int) -> List[tuple]:
        """(image offset, nbytes) runs holding directory bytes
        ``[start, start + nbytes)``, in order, from one walk of the chain.

        Raises when the chain is shorter than the capacity, whatever the
        range asked for.
        """
        runs = []
        end = start + nbytes
        position = 0                # directory byte at the extent's start
        for offset, length in self.extents():
            low = max(start, position)
            high = min(end, position + length)
            if low < high:
                runs.append((offset + low - position, high - low))
            position += length
        if position < self.capacity_entries * DIR_ENTRY_SIZE:
            raise FilesystemError(
                f"{self.name}: chain shorter than capacity")
        return runs

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------

    def extend(self, entries: Iterable[DirEntry]) -> None:
        """Write ``entries`` into the next free slots, in order: all of
        them, or none when one does not encode or they do not fit.

        The benchmark image writes pre-encoded bytes instead; this is
        how tests build the irregular directories that ``fsck`` and
        ``EfslFat``'s image checks must refuse (``tests/test_efsl.py``,
        ``tests/test_fs_image.py``).
        """
        self.write_entries(b"".join(entry.encode() for entry in entries))

    def write_entries(self, raw: bytes) -> None:
        """Append pre-encoded entries (a whole number of 32-byte entries)
        after the used ones, one slice per extent.

        All or nothing: the size, the capacity and the chain length are
        checked before any byte is written.
        """
        count, partial = divmod(len(raw), DIR_ENTRY_SIZE)
        if partial:
            raise FilesystemError(
                f"{self.name}: {len(raw)} bytes is not a whole number "
                "of entries")
        if self.n_entries + count > self.capacity_entries:
            raise FilesystemError(f"directory {self.name} is full")
        done = 0
        for offset, nbytes in self._runs(self.bytes_used, len(raw)):
            self.image.write(offset, raw[done:done + nbytes])
            done += nbytes
        self.n_entries += count

    def read_entries(self) -> bytes:
        """The used entries' bytes in index order, one slice per extent.

        Raises, like :meth:`write_entries`, when the chain is shorter than
        the capacity.
        """
        read = self.image.read
        return b"".join(read(offset, nbytes)
                        for offset, nbytes in self._runs(0, self.bytes_used))

    def entry_at(self, index: int) -> Optional[DirEntry]:
        raw = self.image.read(self.entry_offset(index), DIR_ENTRY_SIZE)
        return DirEntry.decode(raw)

    def search(self, name: str) -> Optional[tuple]:
        """Linear scan for ``name``; returns (index, entry) or None.

        This is the byte-accurate reference search — the inner loop the
        paper's benchmark stresses.  The simulation adapter charges
        memory costs for exactly the bytes this walk touches; the
        reference is reached through :meth:`FatFilesystem.lookup`.
        """
        wanted = encode_name(name)
        image = self.image
        index = 0
        for offset, nbytes in self.extents():
            position = offset
            end = offset + nbytes
            while position < end and index < self.n_entries:
                raw = image.read(position, DIR_ENTRY_SIZE)
                if raw[:11] == wanted:
                    entry = DirEntry.decode(raw)
                    return index, entry
                position += DIR_ENTRY_SIZE
                index += 1
        return None

    def __repr__(self) -> str:
        return (f"FatDirectory({self.name}, cluster={self.first_cluster}, "
                f"{self.n_entries}/{self.capacity_entries} entries)")
