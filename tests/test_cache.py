"""Tests for repro.mem.cache (the LRU capacity model)."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.mem.cache import LRUCache


class TestLRUCache:
    def test_insert_and_contains(self):
        cache = LRUCache(4)
        assert cache.insert(1) is None
        assert 1 in cache
        assert 2 not in cache

    def test_evicts_lru(self):
        cache = LRUCache(2)
        cache.insert(1)
        cache.insert(2)
        victim = cache.insert(3)
        assert victim == 1
        assert 1 not in cache and 2 in cache and 3 in cache

    def test_touch_refreshes_recency(self):
        cache = LRUCache(2)
        cache.insert(1)
        cache.insert(2)
        cache.touch(1)
        assert cache.insert(3) == 2

    def test_touch_absent_is_noop(self):
        cache = LRUCache(2)
        cache.touch(99)
        assert len(cache) == 0

    def test_reinsert_refreshes_without_eviction(self):
        cache = LRUCache(2)
        cache.insert(1)
        cache.insert(2)
        assert cache.insert(1) is None
        assert cache.insert(3) == 2

    def test_remove(self):
        cache = LRUCache(2)
        cache.insert(1)
        cache.remove(1)
        assert 1 not in cache
        cache.remove(1)  # idempotent

    def test_free_lines(self):
        cache = LRUCache(3)
        assert cache.free_lines == 3
        cache.insert(1)
        assert cache.free_lines == 2

    def test_lines_in_lru_order(self):
        cache = LRUCache(3)
        for line in (1, 2, 3):
            cache.insert(line)
        cache.touch(1)
        assert list(cache.lines()) == [2, 3, 1]

    def test_pinned_lines_survive_eviction(self):
        cache = LRUCache(2)
        cache.insert(1)
        cache.pin(1)
        cache.insert(2)
        victim = cache.insert(3)
        assert victim == 2
        assert 1 in cache

    def test_capacity_invariant_even_when_all_pinned(self):
        cache = LRUCache(2)
        cache.insert(1)
        cache.pin(1)
        cache.insert(2)
        cache.pin(2)
        cache.insert(3)
        assert len(cache) == 2

    def test_clear(self):
        cache = LRUCache(2)
        cache.insert(1)
        cache.clear()
        assert len(cache) == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            LRUCache(0)


@settings(max_examples=50)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["insert", "touch", "remove"]),
              st.integers(min_value=0, max_value=30)),
    max_size=200))
def test_lru_matches_reference_model(ops):
    """LRUCache behaves exactly like an OrderedDict reference model."""
    capacity = 8
    cache = LRUCache(capacity)
    model: "OrderedDict[int, None]" = OrderedDict()
    for op, line in ops:
        if op == "insert":
            victim = cache.insert(line)
            if line in model:
                model.move_to_end(line)
                assert victim is None
            else:
                model[line] = None
                if len(model) > capacity:
                    expected, _ = model.popitem(last=False)
                    assert victim == expected
                else:
                    assert victim is None
        elif op == "touch":
            cache.touch(line)
            if line in model:
                model.move_to_end(line)
        else:
            cache.remove(line)
            model.pop(line, None)
        assert len(cache) == len(model)
        assert list(cache.lines()) == list(model)
