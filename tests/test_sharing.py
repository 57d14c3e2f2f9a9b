"""Tests for repro.mem.sharing (coherence directory).

Only the memory system adds holders, so the membership cases populate
the directory through :meth:`MemorySystem.load`.
"""

from repro.mem.sharing import SharingDirectory
from repro.mem.system import MemorySystem

from tests.helpers import tiny_spec


def loaded(*accesses) -> MemorySystem:
    """A tiny machine's memory after each ``(core, line)`` load."""
    memory = MemorySystem(tiny_spec())
    for core, line in accesses:
        memory.load(core, line * 64, 0)
    return memory


class TestHolderIds:
    def test_core_and_l3_ids_distinct(self):
        directory = SharingDirectory(n_cores=4)
        assert directory.l3_holder(0) == 4
        assert directory.is_l3_holder(4)
        assert not directory.is_l3_holder(3)

    def test_chip_of_holder(self):
        # 2 cores per chip: cores 0,1 on chip 0; l3 holder 4 is chip 0.
        assert MemorySystem(tiny_spec())._holder_chip == [0, 0, 1, 1, 0, 1]


class TestMembership:
    def test_add_and_holders(self):
        directory = loaded((0, 10), (2, 10)).directory
        assert directory.holders(10) == frozenset({0, 2})

    def test_discard(self):
        directory = loaded((0, 10)).directory
        directory.discard(10, 0)
        assert directory.holders(10) == frozenset()
        assert len(directory) == 0

    def test_discard_absent_is_noop(self):
        SharingDirectory(4).discard(10, 0)
        directory = loaded((1, 10)).directory
        directory.discard(10, 0)
        assert directory.holders(10) == frozenset({1})

    def test_cached_lines(self):
        directory = loaded((0, 1), (1, 2)).directory
        assert sorted(line for line, _ in directory.items()) == [1, 2]

    def test_holders_view_is_immutable_snapshot(self):
        memory = loaded((0, 1))
        view = memory.directory.holders(1)
        memory.load(2, 64, 0)
        assert view == frozenset({0})
        assert memory.directory.holders(1) == frozenset({0, 2})
