"""Tests for repro.core.object_table."""

import pytest

from repro.core.object_table import CtObject, ObjectTable
from repro.errors import SchedulerError


def obj(name="o", size=4096, **kwargs):
    return CtObject(name, 0, size, **kwargs)


class TestCtObject:
    def test_initially_unassigned(self):
        o = obj()
        assert not o.assigned
        assert o.home is None

    def test_window_misses_per_op(self):
        o = obj()
        assert o.window_misses_per_op() == 0.0
        o.window_ops = 2
        o.window_expensive_misses = 10
        assert o.window_misses_per_op() == 5.0

    def test_footprint_prefers_size_hint(self):
        o = obj(size=4000)
        o.measured_footprint_lines = 100     # 6400 bytes measured
        assert o.footprint_bytes(64) == 4000

    def test_footprint_falls_back_to_measurement(self):
        o = obj(size=0)
        o.measured_footprint_lines = 10
        assert o.footprint_bytes(64) == 640

    def test_unique_ids(self):
        assert obj().oid != obj().oid


class TestObjectTable:
    def test_lookup_miss(self):
        table = ObjectTable()
        o = obj()
        assert table.lookup(o) is None
        assert table.lookups == 1
        assert table.hits == 0

    def test_assign_and_lookup(self):
        table = ObjectTable()
        o = obj()
        table.assign(o, 3)
        assert table.lookup(o) == [3]
        assert o.assigned
        assert o.home == 3
        assert table.hits == 1

    def test_assign_replica(self):
        table = ObjectTable()
        o = obj()
        table.assign(o, 1)
        table.assign(o, 2)
        assert sorted(table.lookup(o)) == [1, 2]

    def test_assign_same_core_twice_is_noop(self):
        table = ObjectTable()
        o = obj()
        table.assign(o, 1)
        table.assign(o, 1)
        assert table.lookup(o) == [1]

    def test_move(self):
        table = ObjectTable()
        o = obj()
        table.assign(o, 1)
        table.move(o, 1, 5)
        assert table.lookup(o) == [5]
        assert o.home == 5

    def test_move_unassigned_is_error(self):
        table = ObjectTable()
        with pytest.raises(SchedulerError):
            table.move(obj(), 0, 1)

    def test_unassign_one_replica(self):
        table = ObjectTable()
        o = obj()
        table.assign(o, 1)
        table.assign(o, 2)
        table.unassign(o, 1)
        assert table.lookup(o) == [2]

    def test_unassign_last_replica_clears_entry(self):
        table = ObjectTable()
        o = obj()
        table.assign(o, 1)
        table.unassign(o, 1)
        assert o not in table
        assert not o.assigned
        assert len(table) == 0

    def test_unassign_all(self):
        table = ObjectTable()
        o = obj()
        table.assign(o, 1)
        table.assign(o, 2)
        table.unassign(o)
        assert not o.assigned

    def test_objects_on(self):
        table = ObjectTable()
        a, b = obj("a"), obj("b")
        table.assign(a, 0)
        table.assign(b, 0)
        names = {o.name for o in table.objects_on(0)}
        assert names == {"a", "b"}
        assert table.objects_on(1) == []

    def test_contains(self):
        table = ObjectTable()
        o = obj()
        assert o not in table
        table.assign(o, 0)
        assert o in table
