"""Tests for repro.mem.interconnect: the chip-to-chip costs and the
per-link traffic ledger, driven through the memory system that charges
them (amd16: cores 0-3 on chip 0, 4-7 on chip 1, 12-15 on chip 3; chip 0
is one hop from chip 1 and two from chip 3)."""

from repro.cpu.topology import MachineSpec
from repro.mem.system import MemorySystem


def make():
    return MemorySystem(MachineSpec.amd16())


def remote_read(memory, holder, line=0):
    """``holder`` caches ``line``, then core 0 reads it; return the cost
    of core 0's read."""
    memory.load(holder, line * memory.line_size, 0)
    return memory.load(0, line * memory.line_size, 0)


def invalidate(memory, holder, line=0):
    """Core 0 and ``holder`` both cache ``line``, then core 0 writes it;
    return the write's cost beyond core 0's own L1 hit."""
    addr = line * memory.line_size
    memory.load(0, addr, 0)
    memory.load(holder, addr, 0)
    return memory.store(0, addr, 0) - memory.spec.latency.l1


class TestLatency:
    def test_same_chip_remote_matches_paper(self):
        memory = make()
        assert remote_read(memory, holder=1) == 127

    def test_hop_penalty(self):
        memory = make()
        one_hop = remote_read(memory, holder=4, line=0)
        two_hops = remote_read(memory, holder=12, line=1)
        assert 127 < one_hop < two_hops

    def test_invalidate_cost_grows_with_distance(self):
        assert invalidate(make(), holder=12) > invalidate(make(), holder=1)


class TestTraffic:
    def test_same_chip_transfer_not_counted_as_cross_chip(self):
        memory = make()
        remote_read(memory, holder=1)
        assert memory.interconnect.total_transfers == 0

    def test_cross_chip_transfers_counted(self):
        memory = make()
        remote_read(memory, holder=4, line=0)
        remote_read(memory, holder=4, line=1)
        assert memory.interconnect.total_transfers == 2
        assert memory.interconnect.transfers == {(1, 0): 2}

    def test_invalidations_counted(self):
        memory = make()
        invalidate(memory, holder=12)
        assert memory.interconnect.total_invalidations == 1
        assert memory.interconnect.invalidations == {(0, 3): 1}
        # Core 12's read of core 0's copy crossed chips too.
        assert memory.interconnect.cross_chip_messages() == 2
