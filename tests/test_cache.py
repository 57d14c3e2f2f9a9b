"""Tests for repro.mem.cache (the LRU capacity model).

A cache holds presence and recency; the memory system's load path
inserts into it and evicts from it.  The replacement cases therefore
drive core 0's private levels (views of its :class:`PrivateStack`)
through :class:`MemorySystem` and read them back.
"""

import random
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.mem.cache import LRUCache, PrivateStack, StackLevel
from repro.mem.system import MemorySystem

from tests.helpers import tiny_spec

LINE = 64


def l1_after(*lines, capacity=2) -> StackLevel:
    """Core 0's L1 (``capacity`` lines) after loading ``lines`` in order."""
    memory = MemorySystem(tiny_spec(n_chips=1, cores_per_chip=1,
                                    l1_bytes=capacity * LINE))
    for line in lines:
        memory.load(0, line * LINE, 0)
    return memory.l1s[0]


class TestLRUCache:
    def test_insert_and_contains(self):
        cache = l1_after(1, capacity=4)
        assert 1 in cache
        assert 2 not in cache

    def test_evicts_lru(self):
        cache = l1_after(1, 2, 3)
        assert 1 not in cache and 2 in cache and 3 in cache
        assert cache.evictions == 1

    def test_touch_refreshes_recency(self):
        # The hit on 1 makes 2 the LRU line, so 3 evicts 2.
        cache = l1_after(1, 2, 1, 3)
        assert list(cache.lines()) == [1, 3]

    def test_reinsert_refreshes_without_eviction(self):
        cache = l1_after(1, 2, 1)
        assert list(cache.lines()) == [2, 1]
        assert cache.evictions == 0

    def test_remove(self):
        cache = l1_after(1)
        cache.remove(1)
        assert 1 not in cache
        cache.remove(1)  # idempotent

    def test_lines_in_lru_order(self):
        cache = l1_after(1, 2, 3, 1, capacity=3)
        assert list(cache.lines()) == [2, 3, 1]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            LRUCache(0)


OPS = ("load", "store", "scan", "other_load", "other_store")


#: Scan lengths reach past L1 + L2 (4 + 8 lines below), so a scan can
#: evict lines it has yet to reach and lines it read itself.
MAX_SCAN = 20


def seeded_ops(seed, n):
    rng = random.Random(seed)
    return [(rng.choice(OPS), rng.randrange(31),
             rng.randrange(1, MAX_SCAN + 1)) for _ in range(n)]


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(OPS),
              st.integers(min_value=0, max_value=30),
              st.integers(min_value=1, max_value=MAX_SCAN)),
    max_size=200))
# One long run, always checked: it reaches every stack path (holes in
# both levels, split runs, L2 evictions) on every run of the suite.
@example(ops=seeded_ops(3, 3000))
def test_lru_matches_reference_model(ops):
    """Core 0's L1 and L2 behave exactly like two OrderedDict LRU models
    joined by the exclusive victim cascade: its own accesses (loads,
    stores, the lines of a scan) refresh a line in L1 or move it up from
    L2, L1's LRU line drops into L2 and L2's leaves; another core's store
    invalidates the line in either level, and another core's load leaves
    it alone."""
    l1_cap, l2_cap = 4, 8
    memory = MemorySystem(tiny_spec(n_chips=1, l1_bytes=l1_cap * LINE,
                                    l2_bytes=l2_cap * LINE))
    l1, l2 = memory.l1s[0], memory.l2s[0]
    model1: "OrderedDict[int, None]" = OrderedDict()
    model2: "OrderedDict[int, None]" = OrderedDict()
    evictions = [0, 0]

    def access(line):
        if line in model1:
            model1.move_to_end(line)
            return
        model2.pop(line, None)
        model1[line] = None
        if len(model1) > l1_cap:
            evictions[0] += 1
            model2[model1.popitem(last=False)[0]] = None
            if len(model2) > l2_cap:
                evictions[1] += 1
                model2.popitem(last=False)

    for op, line, length in ops:
        if op == "other_load":
            memory.load(1, line * LINE, 0)
        elif op == "other_store":
            memory.store(1, line * LINE, 0)
            model1.pop(line, None)
            model2.pop(line, None)
        elif op == "scan":
            memory.scan(0, line * LINE, length * LINE, 0)
            for scanned in range(line, line + length):
                access(scanned)
        else:
            getattr(memory, op)(0, line * LINE, 0)
            access(line)
        assert list(l1.lines()) == list(model1)
        assert list(l2.lines()) == list(model2)
        assert (len(l1), len(l2)) == (len(model1), len(model2))
    assert [l1.evictions, l2.evictions] == evictions


class TestPrivateStack:
    def test_l2_hit_fills_an_invalidated_l1_hole(self):
        memory = MemorySystem(tiny_spec(n_chips=1, l1_bytes=2 * LINE,
                                        l2_bytes=4 * LINE))
        l1, l2 = memory.l1s[0], memory.l2s[0]
        for line in (1, 2, 3, 4):
            memory.load(0, line * LINE, 0)
        assert (list(l2.lines()), list(l1.lines())) == ([1, 2], [3, 4])
        # Another core's store invalidates 4: L1 keeps a hole, and 2
        # (the newest L2 line) does not move up into it.
        memory.store(1, 4 * LINE, 0)
        assert (list(l2.lines()), list(l1.lines())) == ([1, 2], [3])
        evictions = l1.evictions
        # The L2 hit fills the hole; L1's LRU line 3 stays in L1.
        memory.load(0, 1 * LINE, 0)
        assert (list(l2.lines()), list(l1.lines())) == ([2], [3, 1])
        assert l1.evictions == evictions
        # L1 is full again, so the next miss demotes 3.
        memory.load(0, 5 * LINE, 0)
        assert (list(l2.lines()), list(l1.lines())) == ([2, 3], [1, 5])
        assert l1.evictions == evictions + 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            PrivateStack(0, 4)
