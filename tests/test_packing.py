"""Tests for repro.core.packing: the placement rule, and CoreTime's
packing step that applies it (``assign_expensive_objects``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coretime import CoreTimeConfig, CoreTimeScheduler
from repro.core.object_table import CtObject
from repro.core.packing import (POLICIES, CacheBudget, check_policy,
                                make_budgets, place)
from repro.cpu.machine import Machine
from repro.errors import PackingError

from tests.helpers import tiny_spec


def objects_of_sizes(sizes, ops=None):
    """Objects that all qualify as expensive; ``ops`` gives each one's
    operations in the current window (its popularity)."""
    objs = []
    for index, size in enumerate(sizes):
        o = CtObject(f"o{index}", index * 65536, size)
        o.window_ops = ops[index] if ops else 2
        o.window_expensive_misses = 100 * o.window_ops
        objs.append(o)
    return objs


def run_packing(objs, budgets, policy="first_fit"):
    """Run CoreTime's packing step on ``objs`` over ``budgets``; returns
    the runtime and {object name: core} for the objects it placed."""
    scheduler = CoreTimeScheduler(CoreTimeConfig(packing=policy))
    scheduler.bind(Machine(tiny_spec()))
    scheduler.budgets = budgets
    for obj in objs:
        scheduler.monitor.tracked[obj.oid] = obj
    scheduler.assign_expensive_objects()
    return scheduler, {o.name: o.home for o in objs if o.assigned}


class TestCacheBudget:
    def test_charge_and_refund(self):
        budget = CacheBudget(0, 1000)
        budget.charge(400)
        assert budget.free_bytes == 600
        assert budget.fits(600) and not budget.fits(601)
        budget.refund(400)
        assert budget.free_bytes == 1000

    def test_refund_never_goes_negative(self):
        budget = CacheBudget(0, 100)
        budget.refund(500)
        assert budget.used_bytes == 0


class TestMakeBudgets:
    def test_one_per_core(self):
        budgets = make_budgets(1000, 4)
        assert [b.core_id for b in budgets] == [0, 1, 2, 3]
        assert all(b.capacity_bytes == 1000 for b in budgets)

    def test_headroom_scales_capacity(self):
        budgets = make_budgets(1000, 2, headroom=0.5)
        assert budgets[0].capacity_bytes == 500

    def test_bad_headroom_rejected(self):
        with pytest.raises(PackingError):
            make_budgets(1000, 2, headroom=0.0)
        with pytest.raises(PackingError):
            make_budgets(1000, 2, headroom=1.5)


class TestPlace:
    def test_cluster_home_wins_while_it_has_room(self):
        budgets = make_budgets(150, 3)
        for policy in POLICIES:
            assert place(budgets, 100, policy, key=0, home=2) == 2
        budgets[2].charge(100)
        assert place(budgets, 100, "first_fit", key=0, home=2) == 0

    def test_balanced_takes_the_emptiest_budget(self):
        budgets = make_budgets(1000, 3)
        budgets[0].charge(300)
        budgets[2].charge(100)
        assert place(budgets, 100, "balanced", key=0) == 1

    def test_hash_takes_only_the_keyed_budget(self):
        budgets = make_budgets(1000, 4)
        assert place(budgets, 100, "hash", key=4 * 7 + 3) == 3
        budgets[3].charge(950)
        assert place(budgets, 100, "hash", key=3) is None


class TestFirstFit:
    def test_everything_fits_when_room(self):
        objs = objects_of_sizes([100] * 6)
        _, placed = run_packing(objs, make_budgets(1000, 2))
        assert len(placed) == 6

    def test_first_fit_fills_early_budgets_first(self):
        objs = objects_of_sizes([100] * 4)
        _, placed = run_packing(objs, make_budgets(1000, 2))
        assert set(placed.values()) == {0}

    def test_hottest_objects_win_when_capacity_short(self):
        objs = objects_of_sizes([100] * 4, ops=[2, 9, 5, 7])
        # Room for two objects in total.
        scheduler, placed = run_packing(objs, make_budgets(100, 2))
        assert set(placed) == {"o1", "o3"}
        assert scheduler.declined_assignments == 2

    def test_oversized_object_unplaced(self):
        assert place(make_budgets(1000, 4), 5000, "first_fit", 0) is None
        for policy in POLICIES:
            objs = objects_of_sizes([5000])
            _, placed = run_packing(objs, make_budgets(1000, 4), policy)
            assert placed == {}

    def test_cluster_members_colocated(self):
        # o0 then its mate o3 are the two hottest, so the cluster home
        # still has room when the mate is placed.
        objs = objects_of_sizes([100] * 4, ops=[5, 2, 3, 4])
        objs[0].cluster_key = "pair"
        objs[3].cluster_key = "pair"
        _, placed = run_packing(objs, make_budgets(250, 4))
        assert placed["o0"] == placed["o3"]
        # The remaining objects could not all share that core.
        assert len(set(placed.values())) == 2

    def test_cluster_respects_capacity(self):
        objs = objects_of_sizes([100, 100], ops=[3, 2])
        objs[0].cluster_key = "k"
        objs[1].cluster_key = "k"
        # The cluster cannot fit on one core.
        _, placed = run_packing(objs, make_budgets(100, 2))
        assert sorted(placed.values()) == [0, 1]

    def test_deterministic(self):
        ops = [3, 2, 4, 2, 5, 9, 2, 6]
        _, a = run_packing(objects_of_sizes([100] * 8, ops),
                           make_budgets(300, 3))
        _, b = run_packing(objects_of_sizes([100] * 8, ops),
                           make_budgets(300, 3))
        assert a == b


class TestOtherPolicies:
    def test_balanced_spreads_load(self):
        objs = objects_of_sizes([100] * 4)
        _, placed = run_packing(objs, make_budgets(1000, 4), "balanced")
        assert sorted(placed.values()) == [0, 1, 2, 3]

    def test_hash_is_popularity_blind(self):
        ops = list(range(2, 10))
        _, hot_first = run_packing(objects_of_sizes([100] * 8, ops),
                                   make_budgets(1000, 4), "hash")
        _, hot_last = run_packing(objects_of_sizes([100] * 8, ops[::-1]),
                                  make_budgets(1000, 4), "hash")
        assert len(hot_first) == 8
        assert hot_first == hot_last
        assert len(set(hot_first.values())) > 1

    def test_check_policy(self):
        for policy in POLICIES:
            check_policy(policy)
        with pytest.raises(PackingError):
            check_policy("nope")

    def test_random_policy_rejected(self):
        with pytest.raises(PackingError):
            CoreTimeScheduler(CoreTimeConfig(packing="random"))


@settings(max_examples=50)
@given(sizes=st.lists(st.integers(min_value=1, max_value=2000),
                      max_size=40),
       capacity=st.integers(min_value=1, max_value=4000),
       n_cores=st.integers(min_value=1, max_value=8),
       policy=st.sampled_from(POLICIES))
def test_packing_invariants(sizes, capacity, n_cores, policy):
    """Every policy: budgets never overflow and are charged exactly what
    is placed on them, every object is placed or declined exactly once,
    placements only go to existing cores."""
    objs = objects_of_sizes(sizes)
    budgets = make_budgets(capacity, n_cores)
    scheduler, placed = run_packing(objs, budgets, policy)
    used = {b.core_id: 0 for b in budgets}
    for o in objs:
        assert len(o.assigned_cores) <= 1
        if o.assigned:
            assert 0 <= o.home < n_cores
            used[o.home] += o.size
    for budget in budgets:
        assert used[budget.core_id] <= budget.capacity_bytes
        assert budget.used_bytes == used[budget.core_id]
    assert len(placed) + scheduler.declined_assignments == len(objs)
