"""Tests for repro.mem.cache (the LRU capacity model).

An ``LRUCache`` holds presence and recency; the memory system's load
path inserts into it and evicts from it.  The replacement cases therefore
drive core 0's L1 through :meth:`MemorySystem.load` and read it back.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.mem.cache import LRUCache
from repro.mem.system import MemorySystem

from tests.helpers import tiny_spec

LINE = 64


def l1_after(*lines, capacity=2) -> LRUCache:
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

    def test_clear(self):
        cache = l1_after(1)
        cache.clear()
        assert len(cache) == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            LRUCache(0)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["load", "store", "other_load", "other_store"]),
              st.integers(min_value=0, max_value=30)),
    max_size=200))
def test_lru_matches_reference_model(ops):
    """Core 0's L1 behaves exactly like an OrderedDict LRU model: its own
    accesses insert or refresh a line, another core's store invalidates
    it, and another core's load leaves it alone."""
    capacity = 8
    memory = MemorySystem(tiny_spec(n_chips=1, l1_bytes=capacity * LINE))
    cache = memory.l1s[0]
    model: "OrderedDict[int, None]" = OrderedDict()
    evictions = 0
    for op, line in ops:
        if op == "other_load":
            memory.load(1, line * LINE, 0)
        elif op == "other_store":
            memory.store(1, line * LINE, 0)
            model.pop(line, None)
        else:
            getattr(memory, op)(0, line * LINE, 0)
            if line in model:
                model.move_to_end(line)
            else:
                model[line] = None
                if len(model) > capacity:
                    model.popitem(last=False)
                    evictions += 1
        assert list(cache.lines()) == list(model)
    assert cache.evictions == evictions
