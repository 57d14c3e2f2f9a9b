"""Tests for repro.mem.layout (address-space allocator)."""

import pytest

from repro.errors import AllocationError
from repro.mem.layout import AddressSpace


class TestAlloc:
    def test_line_aligned_by_default(self):
        space = AddressSpace(line_size=64)
        space.alloc("a", 10)
        region = space.alloc("b", 10)
        assert region.base % 64 == 0

    def test_regions_do_not_overlap(self):
        space = AddressSpace()
        a = space.alloc("a", 1000)
        b = space.alloc("b", 1000)
        assert a.base + a.size <= b.base

    def test_duplicate_name_rejected(self):
        space = AddressSpace()
        space.alloc("a", 10)
        with pytest.raises(AllocationError):
            space.alloc("a", 10)

    def test_zero_size_rejected(self):
        with pytest.raises(AllocationError):
            AddressSpace().alloc("a", 0)

    def test_out_of_space(self):
        space = AddressSpace(size=256)
        space.alloc("a", 200)
        with pytest.raises(AllocationError):
            space.alloc("b", 200)

    def test_custom_alignment(self):
        space = AddressSpace()
        space.alloc("pad", 10)
        region = space.alloc("page", 10, alignment=4096)
        assert region.base % 4096 == 0
