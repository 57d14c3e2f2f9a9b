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
        # L3 holder ids follow the core ids.
        directory = SharingDirectory(n_cores=4)
        assert directory.l3_holder(0) == 4
        assert directory.l3_holder(1) == 5

    def test_chip_of_holder(self):
        # 2 cores per chip: cores 0,1 on chip 0; l3 holder 4 is chip 0.
        assert MemorySystem(tiny_spec())._holder_chip == [0, 0, 1, 1, 0, 1]


class TestMembership:
    def test_add_and_holders(self):
        directory = loaded((0, 10), (2, 10)).directory
        assert directory.holders(10) == frozenset({0, 2})

    def test_cached_lines(self):
        directory = loaded((0, 1), (1, 2)).directory
        assert sorted(line for line, _ in directory.items()) == [1, 2]

    def test_holders_view_is_immutable_snapshot(self):
        memory = loaded((0, 1))
        view = memory.directory.holders(1)
        memory.load(2, 64, 0)
        assert view == frozenset({0})
        assert memory.directory.holders(1) == frozenset({0, 2})
