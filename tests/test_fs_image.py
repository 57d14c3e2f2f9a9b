"""Tests for repro.fs.directory and repro.fs.image."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FilesystemError
from repro.fs.directory import ATTR_ARCHIVE, DirEntry
from repro.fs.fat import DIR_ENTRY_SIZE
from repro.fs.image import FatFilesystem
from repro.fs.names import file_name


def _fragmented(fs):
    """A 300-entry directory (3 clusters of 4 KB) whose last cluster is
    relinked past a hole, so its chain is two extents."""
    directory = fs.mkdir("D", 300)
    image = fs.image
    chain = image.chain(directory.first_cluster)
    image.alloc_cluster()             # hole
    image.fat_write(chain[-2], image.alloc_chain(1))
    return directory


class TestDirEntry:
    def test_roundtrip(self):
        entry = DirEntry("A.TXT", ATTR_ARCHIVE, 7, 1234)
        decoded = DirEntry.decode(entry.encode())
        assert decoded == entry

    def test_encode_is_32_bytes(self):
        assert len(DirEntry("A.TXT", 0, 0, 0).encode()) == DIR_ENTRY_SIZE

    def test_free_slot_decodes_to_none(self):
        assert DirEntry.decode(b"\x00" * 32) is None

    def test_decode_wrong_size(self):
        with pytest.raises(FilesystemError):
            DirEntry.decode(b"x" * 31)


class TestFatFilesystem:
    def test_mkdir_creates_chain_and_root_entry(self):
        fs = FatFilesystem()
        directory = fs.mkdir("DIR00000", 100)
        assert directory.capacity_entries == 100
        chain = fs.image.chain(directory.first_cluster)
        assert len(chain) >= 1

    def test_duplicate_mkdir_rejected(self):
        fs = FatFilesystem()
        fs.mkdir("D", 10)
        with pytest.raises(FilesystemError):
            fs.mkdir("D", 10)

    def test_create_and_lookup(self):
        fs = FatFilesystem()
        directory = fs.mkdir("D", 10)
        directory.extend([DirEntry("A.DAT", ATTR_ARCHIVE, 0, 0),
                          DirEntry("B.DAT", ATTR_ARCHIVE, 0, 0)])
        index, entry = fs.lookup("D", "B.DAT")
        assert index == 1
        assert entry.name == "B.DAT"

    def test_lookup_missing_file(self):
        fs = FatFilesystem()
        fs.mkdir("D", 10)
        with pytest.raises(FilesystemError):
            fs.lookup("D", "NOPE.DAT")

    def test_lookup_missing_directory(self):
        fs = FatFilesystem()
        with pytest.raises(FilesystemError):
            fs.lookup("NOPE", "A.DAT")

    def test_directory_full(self):
        fs = FatFilesystem()
        directory = fs.mkdir("D", 2)
        directory.extend([DirEntry("A.DAT", ATTR_ARCHIVE, 0, 0),
                          DirEntry("B.DAT", ATTR_ARCHIVE, 0, 0)])
        with pytest.raises(FilesystemError):
            directory.extend([DirEntry("C.DAT", ATTR_ARCHIVE, 0, 0)])

    def test_entry_offset_walks_chain(self):
        fs = FatFilesystem()
        # 300 entries x 32 B = 9600 B = 3 clusters of 4 KB.
        directory = fs.mkdir("D", 300)
        first = directory.entry_offset(0)
        last = directory.entry_offset(299)
        assert last > first

    def test_entry_offset_out_of_range(self):
        fs = FatFilesystem()
        directory = fs.mkdir("D", 10)
        with pytest.raises(FilesystemError):
            directory.entry_offset(10)

    # The first extent holds entries 0-255: split the writes mid-cluster
    # (crossing into the second extent), on the boundary, or not at all.
    @pytest.mark.parametrize("split", [100, 256, 0, 300])
    def test_bulk_read_and_write_walk_a_fragmented_chain(self, split):
        # The bulk path against an independent writer: each entry's
        # encoding placed at entry_offset(i), one entry at a time.
        entries = [DirEntry(file_name(i), ATTR_ARCHIVE, 0, i)
                   for i in range(300)]
        bulk, reference = FatFilesystem(), FatFilesystem()
        bulk_dir = _fragmented(bulk)
        reference_dir = _fragmented(reference)
        assert len(bulk_dir.extents()) == 2
        bulk_dir.extend(entries[:split])
        bulk_dir.extend(entries[split:])
        for index, entry in enumerate(entries):
            offset = reference_dir.entry_offset(index)
            reference.image.data[offset:offset + DIR_ENTRY_SIZE] = \
                entry.encode()
        assert bulk.image.data == reference.image.data
        assert bulk_dir.n_entries == 300
        raw = bulk_dir.read_entries()
        assert len(raw) == 300 * DIR_ENTRY_SIZE
        for index in range(300):
            start = index * DIR_ENTRY_SIZE
            assert DirEntry.decode(raw[start:start + DIR_ENTRY_SIZE]) \
                == bulk_dir.entry_at(index) == entries[index]

    def test_bulk_read_and_write_reject_a_short_chain(self):
        fs = FatFilesystem()
        directory = fs.mkdir("D", 300)
        directory.extend([DirEntry("A.DAT", ATTR_ARCHIVE, 0, 0)])
        chain = fs.image.chain(directory.first_cluster)
        fs.image.fat_write(chain[0], 0xFFFF)
        with pytest.raises(FilesystemError, match="chain shorter"):
            directory.read_entries()
        with pytest.raises(FilesystemError, match="chain shorter"):
            directory.write_entries(b"")

    def test_refused_extend_writes_nothing(self):
        entries = [DirEntry(file_name(i), ATTR_ARCHIVE, 0, i)
                   for i in range(5)]
        fs = FatFilesystem()
        small = fs.mkdir("E", 3)
        short = fs.mkdir("S", 300)       # 3 clusters, cut to 1 below
        fs.image.fat_write(short.first_cluster, 0xFFFF)
        before = bytes(fs.image.data)
        refusals = {
            "full": lambda: small.extend(entries),
            "chain shorter": lambda: short.extend(entries),
            "invalid": lambda: small.extend(
                [entries[0], DirEntry("NOT VALID", 0, 0, 0)]),
            "whole number": lambda: small.write_entries(
                entries[0].encode()[:-1]),
        }
        for reason, refused in refusals.items():
            with pytest.raises(FilesystemError, match=reason):
                refused()
            assert small.n_entries == short.n_entries == 0, reason
            assert fs.image.data == before, reason

    def test_extend_writes_like_repeated_append(self):
        entries = [DirEntry(file_name(i), ATTR_ARCHIVE, 0, i)
                   for i in range(150)]
        one, many = FatFilesystem(), FatFilesystem()
        single = one.mkdir("D", 200)
        for entry in entries:
            single.extend([entry])            # one entry at a time
        bulk = many.mkdir("D", 200)
        bulk.extend(entries)
        assert one.image.data == many.image.data
        assert bulk.n_entries == 150
        with pytest.raises(FilesystemError):
            bulk.extend(entries)


class TestBenchmarkImage:
    def test_shape(self):
        fs = FatFilesystem.build_benchmark_image(4, 50)
        assert len(fs.directories) == 4
        for directory in fs.directories.values():
            assert directory.n_entries == 50

    def test_total_entry_bytes_matches_paper_math(self):
        fs = FatFilesystem.build_benchmark_image(3, 100)
        assert fs.total_entry_bytes == 3 * 100 * 32

    def test_every_file_resolvable(self):
        fs = FatFilesystem.build_benchmark_image(2, 30)
        for dname in fs.directories:
            for findex in range(30):
                index, entry = fs.lookup(dname, file_name(findex))
                assert index == findex

    def test_directory_list_sorted(self):
        fs = FatFilesystem.build_benchmark_image(3, 10)
        names = [d.name for d in fs.directory_list()]
        assert names == sorted(names)

    def test_rejects_empty(self):
        with pytest.raises(FilesystemError):
            FatFilesystem.build_benchmark_image(0, 10)

    @pytest.mark.parametrize("n_dirs, files, cluster_bytes, digest", [
        (160, 125, 512,
         "0392f47fbd2bf087f6ea6d0eb2ccc82240bf9fbb4e2a443d76885b8f51b3672f"),
        (1000, 1000, 4096,
         "43ea4502f3dd859db25d3c8cfc2f7cadd42c7fb4ff9a5c81317163b177628a2b"),
    ])
    def test_image_bytes_are_pinned(self, n_dirs, files, cluster_bytes,
                                    digest):
        # simbench's dirlookup image and the paper-scale one; the digests
        # were taken from the image written one entry at a time.
        fs = FatFilesystem.build_benchmark_image(
            n_dirs, files, cluster_bytes=cluster_bytes)
        assert hashlib.sha256(fs.image.data).hexdigest() == digest


@settings(max_examples=20, deadline=None)
@given(n_dirs=st.integers(min_value=1, max_value=6),
       files=st.integers(min_value=1, max_value=200),
       probe=st.integers(min_value=0, max_value=10_000))
def test_lookup_index_matches_creation_order(n_dirs, files, probe):
    """The byte-level linear search finds entry i exactly where the
    builder put it — the property the simulated scan length relies on."""
    fs = FatFilesystem.build_benchmark_image(n_dirs, files)
    findex = probe % files
    dname = sorted(fs.directories)[probe % n_dirs]
    index, entry = fs.lookup(dname, file_name(findex))
    assert index == findex
    assert entry.name == file_name(findex)
