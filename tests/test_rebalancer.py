"""Tests for repro.core.rebalancer."""

from repro.core.monitor import CoreLoad
from repro.core.object_table import CtObject, ObjectTable
from repro.core.packing import make_budgets
from repro.core.rebalancer import Rebalancer


def load(core_id, idle_frac, ops, dram=0):
    return CoreLoad(core_id=core_id, window_cycles=1000,
                    idle_frac=idle_frac, dram_loads=dram, l2_hits=0,
                    ops=ops)


def table_with(core_objects):
    """core_objects: {core: [(name, heat, size)]}"""
    table = ObjectTable()
    for core, entries in core_objects.items():
        for name, heat, size in entries:
            obj = CtObject(name, 0, size)
            obj.heat = heat
            table.assign(obj, core)
    return table


class TestRebalance:
    def test_moves_from_hot_to_idle(self):
        table = table_with({0: [("a", 50, 100), ("b", 30, 100),
                                ("c", 20, 100)]})
        budgets = make_budgets(10_000, 4)
        budgets[0].charge(300)
        rebalancer = Rebalancer()
        loads = [load(0, 0.0, 100), load(1, 0.9, 0), load(2, 0.9, 0),
                 load(3, 0.9, 0)]
        events = rebalancer.rebalance(loads, table, budgets, 64)
        assert events
        assert all(e.from_core == 0 for e in events)
        assert all(e.to_core in (1, 2, 3) for e in events)
        # Loads shed roughly down to the mean (25 ops).
        remaining = sum(o.heat for o in table.objects_on(0))
        assert remaining < 100

    def test_balanced_system_is_left_alone(self):
        table = table_with({c: [(f"o{c}", 10, 100)] for c in range(4)})
        budgets = make_budgets(10_000, 4)
        rebalancer = Rebalancer()
        loads = [load(c, 0.3, 25) for c in range(4)]
        assert rebalancer.rebalance(loads, table, budgets, 64) == []

    def test_no_receivers_no_moves(self):
        table = table_with({0: [("a", 50, 100), ("b", 40, 100)]})
        budgets = make_budgets(10_000, 2)
        rebalancer = Rebalancer()
        # Both cores busy: nobody can take the load.
        loads = [load(0, 0.0, 90), load(1, 0.01, 60)]
        assert rebalancer.rebalance(loads, table, budgets, 64) == []

    def test_single_dominant_object_not_bounced(self):
        """One object hotter than the entire excess stays put — moving
        it would just move the hot spot."""
        table = table_with({0: [("hot", 100, 100), ("cold", 1, 100)]})
        budgets = make_budgets(10_000, 4)
        rebalancer = Rebalancer()
        loads = [load(0, 0.0, 101), load(1, 0.9, 0), load(2, 0.9, 0),
                 load(3, 0.9, 0)]
        events = rebalancer.rebalance(loads, table, budgets, 64)
        assert all(e.obj_name != "hot" for e in events)

    def test_never_strips_core_bare(self):
        table = table_with({0: [("only", 80, 100)]})
        budgets = make_budgets(10_000, 2)
        rebalancer = Rebalancer()
        loads = [load(0, 0.0, 80), load(1, 0.9, 0)]
        rebalancer.rebalance(loads, table, budgets, 64)
        assert len(table.objects_on(0)) == 1

    def test_budget_transferred_with_move(self):
        table = table_with({0: [("a", 20, 500), ("b", 15, 500)]})
        budgets = make_budgets(10_000, 2)
        budgets[0].charge(1000)
        rebalancer = Rebalancer()
        loads = [load(0, 0.0, 40), load(1, 0.9, 0)]
        events = rebalancer.rebalance(loads, table, budgets, 64)
        moved_bytes = sum(500 for _ in events)
        assert budgets[0].used_bytes == 1000 - moved_bytes
        assert budgets[1].used_bytes == moved_bytes

    def test_dram_overload_triggers_even_if_somewhat_idle(self):
        table = table_with({0: [("a", 30, 100), ("b", 25, 100)]})
        budgets = make_budgets(10_000, 2)
        rebalancer = Rebalancer(dram_overload_loads=100)
        loads = [load(0, 0.04, 55, dram=500), load(1, 0.9, 1)]
        events = rebalancer.rebalance(loads, table, budgets, 64)
        assert events

    def test_mean_zero_is_noop(self):
        rebalancer = Rebalancer()
        assert rebalancer.rebalance([load(0, 0.0, 0)], ObjectTable(),
                                    make_budgets(100, 1), 64) == []

    def test_history_and_counters(self):
        table = table_with({0: [("a", 50, 100), ("b", 30, 100)]})
        budgets = make_budgets(10_000, 2)
        budgets[0].charge(200)
        rebalancer = Rebalancer()
        loads = [load(0, 0.0, 80), load(1, 0.9, 0)]
        events = rebalancer.rebalance(loads, table, budgets, 64)
        assert rebalancer.moves == len(events)
        assert rebalancer.invocations == 1
        assert rebalancer.history == events

    def test_never_moves_an_object_onto_its_own_replica(self):
        """A receiver already holding a replica of an object cannot take
        it: the table would list that core twice and charge its budget
        twice."""
        table = table_with({0: [("hot", 45, 100), ("other", 20, 100)]})
        hot = next(o for o in table.objects() if o.name == "hot")
        table.assign(hot, 1)
        budgets = make_budgets(10_000, 2)
        budgets[0].charge(200)
        budgets[1].charge(100)
        rebalancer = Rebalancer()
        # Core 0 is overloaded and core 1, hot's other replica, is the
        # only receiver.
        loads = [load(0, 0.0, 90), load(1, 0.9, 10)]
        rebalancer.rebalance(loads, table, budgets, 64)
        assert hot.assigned_cores == [0, 1]
        assert [o.name for o in table.objects_on(0)] == ["hot"]
        assert [b.used_bytes for b in budgets] == [100, 200]
