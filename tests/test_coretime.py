"""Tests for repro.core.coretime (the O2 scheduler runtime)."""

import pytest

from repro.core.coretime import CoreTimeConfig, CoreTimeScheduler
from repro.core.object_table import CtObject
from repro.cpu.machine import Machine
from repro.errors import SchedulerError
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.threads.program import Compute, CtEnd, CtStart, Scan
from repro.workloads.synthetic import ObjectOpsSpec, ObjectOpsWorkload

from tests.helpers import tiny_spec


def fast_config(**changes):
    base = dict(monitor_interval=20_000, min_samples=1.5,
                miss_threshold=4.0)
    base.update(changes)
    return CoreTimeConfig(**base)


def build(config=None, **spec_overrides):
    machine = Machine(tiny_spec(**spec_overrides))
    scheduler = CoreTimeScheduler(config or fast_config())
    simulator = Simulator(machine, scheduler)
    return machine, scheduler, simulator


def scan_workload(machine, objects, seed=0):
    """One thread per core scanning random objects, annotated."""
    def make(core_id):
        rng = make_rng(seed, core_id)
        def program():
            while True:
                yield Compute(20)
                obj = objects[rng.randrange(len(objects))]
                yield CtStart(obj)
                yield Scan(obj.addr, obj.size, 2)
                yield CtEnd()
        return program()
    return make


def alloc_objects(machine, count, size=4096):
    objects = []
    for index in range(count):
        region = machine.address_space.alloc(f"obj{index}", size)
        objects.append(CtObject(f"obj{index}", region.base, size))
    return objects


class TestAssignment:
    def test_expensive_objects_get_assigned(self):
        # 16 objects x 4 KB = 64 KB, far beyond the tiny machine's
        # private caches: sustained misses, objects must be assigned.
        machine, scheduler, sim = build()
        objects = alloc_objects(machine, 16)
        sim.spawn_per_core(scan_workload(machine, objects))
        sim.run(until=2_000_000)
        assert len(scheduler.table) > 0
        assert sim.total_migrations > 0

    def test_cheap_objects_left_to_hardware(self):
        # One tiny object per core: everything L1-resident after warmup.
        machine, scheduler, sim = build()
        objects = alloc_objects(machine, 2, size=128)
        sim.spawn_per_core(scan_workload(machine, objects))
        sim.run(until=2_000_000)
        assert len(scheduler.table) == 0
        assert sim.total_migrations == 0

    def test_ops_on_assigned_objects_run_at_home(self):
        machine, scheduler, sim = build()
        objects = alloc_objects(machine, 16)
        sim.spawn_per_core(scan_workload(machine, objects))
        sim.run(until=3_000_000)
        obj = next(iter(scheduler.table.objects()))
        home = obj.home
        # The object's lines live overwhelmingly in the home core's
        # private caches or its chip's L3.
        memory = machine.memory
        resident = 0
        home_resident = 0
        for line in range(obj.addr // 64, (obj.addr + obj.size) // 64):
            holders = memory.directory.holders(line)
            resident += bool(holders)
            l3 = memory.directory.l3_holder(machine.spec.chip_of(home))
            if home in holders or l3 in holders:
                home_resident += 1
        assert resident > 0
        assert home_resident >= resident * 0.8

    def test_budget_respected(self):
        machine, scheduler, sim = build()
        objects = alloc_objects(machine, 40)     # 160 KB >> budgets
        sim.spawn_per_core(scan_workload(machine, objects))
        sim.run(until=3_000_000)
        for budget in scheduler.budgets:
            assert budget.used_bytes <= budget.capacity_bytes
        assert scheduler.declined_assignments > 0

    def test_hash_placement_ignores_earlier_objects(self):
        """Hash placement keys on the object itself, not on how many
        objects the process created before it."""
        def run():
            machine = Machine(tiny_spec())
            sim = Simulator(machine, CoreTimeScheduler(CoreTimeConfig(
                monitor_interval=20_000, packing="hash")))
            workload = ObjectOpsWorkload(machine, ObjectOpsSpec(
                n_objects=6, object_bytes=2048, think_cycles=0, seed=3))
            workload.spawn_all(sim)
            sim.run(until=300_000)
            return ({o.name: list(o.assigned_cores)
                     for o in workload.objects}, sim.total_ops)

        placements, ops = run()
        assert any(placements.values())
        CtObject("unrelated", 0, 64)
        assert run() == (placements, ops)

    def test_rejects_non_ct_objects(self):
        machine, scheduler, sim = build()
        def program():
            yield CtStart("not-an-object")
            yield CtEnd()
        sim.spawn(program(), core_id=0)
        with pytest.raises(SchedulerError):
            sim.run(until=100_000)

    def test_lookup_cost_charged(self):
        machine, scheduler, sim = build(fast_config(lookup_cost=1000))
        objects = alloc_objects(machine, 1, size=64)
        def program():
            yield CtStart(objects[0])
            yield CtEnd()
        sim.spawn(program(), core_id=0)
        sim.run(until=100_000)
        assert machine.cores[0].counters.busy_cycles >= 1000


class TestReturnHome:
    def _migrating_setup(self, **config_changes):
        machine, scheduler, sim = build(fast_config(**config_changes))
        objects = alloc_objects(machine, 16)
        sim.spawn_per_core(scan_workload(machine, objects))
        return machine, scheduler, sim

    def test_return_home_brings_threads_back(self):
        machine, scheduler, sim = self._migrating_setup(return_home=True)
        sim.run(until=3_000_000)
        # Each op that migrated also migrated back: roughly two
        # migrations per remote op, and threads sit at/near home.
        assert sim.total_migrations > 0
        remote_ops = sum(
            machine.memory.counters[c].migrations_in
            for c in range(machine.n_cores))
        assert remote_ops == sim.total_migrations

    def test_stay_put_halves_migrations(self):
        m1, s1, sim1 = self._migrating_setup(return_home=True)
        sim1.run(until=2_000_000)
        m2, s2, sim2 = self._migrating_setup(return_home=False)
        sim2.run(until=2_000_000)
        per_op_1 = sim1.total_migrations / max(1, sim1.total_ops)
        per_op_2 = sim2.total_migrations / max(1, sim2.total_ops)
        assert per_op_2 < per_op_1


class TestMonitoringWindow:
    def test_windows_close_at_interval(self):
        machine, scheduler, sim = build()
        objects = alloc_objects(machine, 8)
        sim.spawn_per_core(scan_workload(machine, objects))
        sim.run(until=1_000_000)
        assert scheduler.monitor.windows_closed >= 10

    def test_rebalance_disabled(self):
        machine, scheduler, sim = build(fast_config(rebalance=False))
        objects = alloc_objects(machine, 16)
        sim.spawn_per_core(scan_workload(machine, objects))
        sim.run(until=1_000_000)
        assert scheduler.rebalancer.invocations == 0

    def test_stats_keys(self):
        machine, scheduler, sim = build()
        stats = scheduler.stats()
        for key in ("objects_tracked", "objects_assigned", "assignments",
                    "rebalance_moves", "table_lookups"):
            assert key in stats


class TestConfig:
    def test_replace(self):
        config = CoreTimeConfig()
        changed = config.replace(miss_threshold=99.0)
        assert changed.miss_threshold == 99.0
        assert config.miss_threshold == 8.0

    def test_defaults_follow_paper_preliminary_design(self):
        config = CoreTimeConfig()
        assert config.packing == "first_fit"
        assert not config.replicate_read_only
        assert not config.lfu_replacement
        assert not config.auto_cluster
        assert config.rebalance
