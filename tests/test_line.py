"""Tests for repro.mem.line (address alignment)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.line import align_up


class TestAlignUp:
    def test_already_aligned(self):
        assert align_up(128, 64) == 128

    def test_rounds_up(self):
        assert align_up(129, 64) == 192

    def test_zero(self):
        assert align_up(0, 64) == 0


@given(addr=st.integers(min_value=0, max_value=1 << 30),
       alignment=st.sampled_from([8, 64, 4096]))
def test_align_up_properties(addr, alignment):
    aligned = align_up(addr, alignment)
    assert aligned >= addr
    assert aligned % alignment == 0
    assert aligned - addr < alignment
