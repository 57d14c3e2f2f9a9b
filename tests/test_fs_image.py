"""Tests for repro.fs.directory and repro.fs.image."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FilesystemError
from repro.fs.directory import ATTR_ARCHIVE, ATTR_DIRECTORY, DirEntry
from repro.fs.fat import DIR_ENTRY_SIZE
from repro.fs.image import FatFilesystem
from repro.fs.names import file_name


class TestDirEntry:
    def test_roundtrip(self):
        entry = DirEntry("A.TXT", ATTR_ARCHIVE, 7, 1234)
        decoded = DirEntry.decode(entry.encode())
        assert decoded == entry

    def test_encode_is_32_bytes(self):
        assert len(DirEntry("A.TXT", 0, 0, 0).encode()) == DIR_ENTRY_SIZE

    def test_free_slot_decodes_to_none(self):
        assert DirEntry.decode(b"\x00" * 32) is None

    def test_is_directory(self):
        assert DirEntry("D", ATTR_DIRECTORY, 2, 0).is_directory
        assert not DirEntry("F", ATTR_ARCHIVE, 0, 0).is_directory

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
        fs.create_file(directory, "A.DAT")
        fs.create_file(directory, "B.DAT")
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
        fs.create_file(directory, "A.DAT")
        fs.create_file(directory, "B.DAT")
        with pytest.raises(FilesystemError):
            fs.create_file(directory, "C.DAT")

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

    def test_entry_offsets_walk_a_fragmented_chain_once(self):
        fs = FatFilesystem()
        # 300 entries x 32 B = 3 clusters; relink the last one past a
        # hole so the chain is two extents.
        directory = fs.mkdir("D", 300)
        image = fs.image
        chain = image.chain(directory.first_cluster)
        image.alloc_cluster()             # hole
        image.fat_write(chain[-2], image.alloc_chain(1))
        assert len(directory.extents()) == 2
        assert directory.entry_offsets() == [
            directory.entry_offset(i) for i in range(300)]

    def test_entry_offsets_reject_a_short_chain(self):
        fs = FatFilesystem()
        directory = fs.mkdir("D", 300)
        chain = fs.image.chain(directory.first_cluster)
        fs.image.fat_write(chain[0], 0xFFFF)
        with pytest.raises(FilesystemError):
            directory.entry_offsets()

    def test_extend_writes_like_repeated_append(self):
        entries = [DirEntry(file_name(i), ATTR_ARCHIVE, 0, i)
                   for i in range(150)]
        one, many = FatFilesystem(), FatFilesystem()
        single = one.mkdir("D", 200)
        for entry in entries:
            single.append(entry)
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
