"""Tests for repro.fs.efsl (the simulation-bound file system)."""

import pytest

from repro.cpu.machine import Machine
from repro.errors import AllocationError, FilesystemError
from repro.fs.check import fsck
from repro.fs.directory import ATTR_ARCHIVE, DirEntry
from repro.fs.efsl import EfslFat
from repro.fs.fat import DIR_ENTRY_SIZE
from repro.fs.image import FatFilesystem
from repro.fs.names import file_name
from repro.threads.program import (Acquire, CtEnd, CtStart, Release, Scan)

from tests.helpers import tiny_spec


def build(n_dirs=2, files=50, cluster_bytes=512):
    machine = Machine(tiny_spec())
    fs = FatFilesystem.build_benchmark_image(n_dirs, files,
                                             cluster_bytes=cluster_bytes)
    return machine, EfslFat(machine, fs)


def spy_on_checks(monkeypatch):
    """The names of the directories whose entries construction checks,
    in order."""
    checked = []
    check = EfslFat._index_names

    def spy(dir_name, raw):
        checked.append(dir_name)
        return check(dir_name, raw)

    monkeypatch.setattr(EfslFat, "_index_names", staticmethod(spy))
    return checked


class TestConstruction:
    def test_image_mapped_into_address_space(self):
        machine, efsl = build()
        assert efsl.region.size == len(efsl.fs.image.data)
        with pytest.raises(AllocationError):     # the name is taken
            machine.address_space.alloc("fat-image", 1)

    def test_every_directory_has_object_and_lock(self):
        machine, efsl = build(n_dirs=3)
        assert len(efsl.directories) == 3
        addresses = set()
        for directory in efsl.directories:
            assert directory.object.size == directory.fat_dir.bytes_used
            assert directory.lock.addr not in addresses
            addresses.add(directory.lock.addr)

    def test_objects_are_read_only(self):
        machine, efsl = build()
        assert all(d.object.read_only for d in efsl.directories)

    def test_name_index_complete(self):
        machine, efsl = build(files=25)
        directory = efsl.directories[0]
        names = EfslFat._index_names(directory.name,
                                     directory.fat_dir.read_entries())
        assert len(names) == 25
        assert names[file_name(7)] == 7

    def test_identical_directories_are_checked_once(self, monkeypatch):
        checked = spy_on_checks(monkeypatch)
        build(n_dirs=3, files=20)
        assert checked == ["DIR00000"]

    def test_directories_that_differ_are_indexed_on_their_own(
            self, monkeypatch):
        fs = FatFilesystem.build_benchmark_image(3, 20, cluster_bytes=512)
        changed = fs.directories["DIR00001"]
        fs.image.write(changed.entry_offset(4),
                       DirEntry("NEW.DAT", ATTR_ARCHIVE, 0, 0).encode())
        odd = fs.mkdir("ODD", 4)
        odd.extend(DirEntry(f"O{i}.DAT", ATTR_ARCHIVE, 0, 0)
                   for i in range(4))
        checked = spy_on_checks(monkeypatch)
        EfslFat(Machine(tiny_spec()), fs)
        assert sorted(checked) == ["DIR00000", "DIR00001", "ODD"]
        # A broken directory whose content differs from its siblings'
        # is still refused, although theirs passed the check.
        fs.image.write(changed.entry_offset(4),
                       DirEntry(file_name(2), ATTR_ARCHIVE, 0, 0).encode())
        with pytest.raises(FilesystemError,
                           match="DIR00001: duplicate name .* at 4 "
                                 r"\(first at 2\)"):
            EfslFat(Machine(tiny_spec()), fs)

    def test_free_slot_in_one_directory_rejected(self):
        fs = FatFilesystem.build_benchmark_image(4, 50, cluster_bytes=512)
        broken = fs.directories["DIR00002"]
        fs.image.write(broken.entry_offset(7), b"\x00" * DIR_ENTRY_SIZE)
        with pytest.raises(FilesystemError,
                           match="DIR00002: unexpected free slot at 7"):
            EfslFat(Machine(tiny_spec()), fs)

    def test_duplicate_name_rejected(self):
        # The byte-level search resolves a duplicated name to its first
        # slot and fsck reports it, so the name index must not pick one.
        fs = FatFilesystem()
        directory = fs.mkdir("D", 10)
        directory.extend(DirEntry(name, ATTR_ARCHIVE, 0, 0)
                         for name in ("A.DAT", "B.DAT", "A.DAT"))
        assert fs.lookup("D", "A.DAT")[0] == 0
        assert not fsck(fs).clean
        with pytest.raises(FilesystemError,
                           match="D: duplicate name 'A.DAT' at 2"):
            EfslFat(Machine(tiny_spec()), fs)

    def test_extents_are_simulated_addresses(self):
        machine, efsl = build()
        region = efsl.region
        for directory in efsl.directories:
            for addr, nbytes in directory.extents:
                assert region.base <= addr < region.base + region.size


class TestSearchItems:
    def test_annotated_sequence(self):
        machine, efsl = build()
        directory = efsl.directories[0]
        items = list(efsl.search_items_by_index(directory, 9))
        kinds = [type(i) for i in items]
        assert kinds[0] is CtStart
        assert kinds[1] is Acquire
        assert all(k is Scan for k in kinds[2:-2])
        assert kinds[-2] is Release
        assert kinds[-1] is CtEnd

    def test_scan_covers_bytes_up_to_match(self):
        machine, efsl = build()
        directory = efsl.directories[0]
        for index in (0, 7, 49):
            items = list(efsl.search_items_by_index(directory, index))
            scanned = sum(i.nbytes for i in items if isinstance(i, Scan))
            assert scanned == (index + 1) * DIR_ENTRY_SIZE

    def test_scan_spans_extents_for_big_directories(self):
        # 500 entries x 32 B = 16000 B > one 512 B cluster: many extents
        # only if the chain fragments; sequential allocation keeps it to
        # one extent, so fragment it artificially via capacity.
        machine, efsl = build(n_dirs=2, files=500, cluster_bytes=512)
        directory = efsl.directories[0]
        items = list(efsl.search_items_by_index(directory, 499))
        scanned = sum(i.nbytes for i in items if isinstance(i, Scan))
        assert scanned == 500 * DIR_ENTRY_SIZE

    def test_index_out_of_range(self):
        machine, efsl = build(files=10)
        with pytest.raises(FilesystemError):
            list(efsl.search_items_by_index(efsl.directories[0], 10))

    def test_per_line_compute_reflects_entries_per_line(self):
        machine, efsl = build()
        # 64-byte lines hold two 32-byte entries.
        assert efsl.per_line_compute == efsl.compare_cycles * 2
