"""Tests for the §6 extension features: ownership/fairness and
heterogeneous cores."""

import pytest

from repro.core.coretime import CoreTimeConfig, CoreTimeScheduler
from repro.core.object_table import CtObject
from repro.cpu.machine import Machine
from repro.cpu.topology import MachineSpec
from repro.errors import ConfigError
from repro.sched.thread_sched import ThreadScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.threads.program import Compute, CtEnd, CtStart, Scan

from tests.helpers import tiny_spec


def scan_workload(machine, objects, seed=0):
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


def owner_usage(machine, scheduler):
    """Bytes of packed budget each owner holds, read off the object
    table."""
    usage = {}
    for obj in scheduler.table.objects():
        usage[obj.owner] = (usage.get(obj.owner, 0)
                            + obj.footprint_bytes(machine.spec.line_size))
    return usage


class TestOwnershipFairness:
    """§6.2: "the O2 scheduler must track which process owns an object…
    could implement priorities and fairness"."""

    def _run(self, frac):
        machine = Machine(tiny_spec())
        scheduler = CoreTimeScheduler(CoreTimeConfig(
            monitor_interval=20_000, min_samples=1.5, miss_threshold=4.0,
            per_owner_budget_frac=frac))
        sim = Simulator(machine, scheduler)
        objects = []
        for index in range(24):
            region = machine.address_space.alloc(f"o{index}", 1024)
            owner = "tenant-a" if index < 18 else "tenant-b"
            objects.append(CtObject(f"o{index}", region.base, 1024,
                                    owner=owner))
        sim.spawn_per_core(scan_workload(machine, objects))
        sim.run(until=2_000_000)
        return machine, scheduler

    def test_unlimited_by_default(self):
        machine, scheduler = self._run(frac=1.0)
        usage = owner_usage(machine, scheduler)
        # The dominant tenant takes most of the budget unconstrained.
        assert usage.get("tenant-a", 0) > usage.get("tenant-b", 0)
        assert scheduler.fairness_declines == 0

    def test_budget_share_enforced(self):
        machine, scheduler = self._run(frac=0.25)
        total = sum(b.capacity_bytes for b in scheduler.budgets)
        for owner, used in owner_usage(machine, scheduler).items():
            assert used <= total * 0.25, (owner, used, total)
        assert scheduler.fairness_declines > 0

    def test_unowned_objects_unconstrained(self):
        machine = Machine(tiny_spec())
        scheduler = CoreTimeScheduler(CoreTimeConfig(
            monitor_interval=20_000, min_samples=1.5, miss_threshold=4.0,
            per_owner_budget_frac=0.01))
        sim = Simulator(machine, scheduler)
        objects = []
        for index in range(8):
            region = machine.address_space.alloc(f"o{index}", 4096)
            objects.append(CtObject(f"o{index}", region.base, 4096))
        sim.spawn_per_core(scan_workload(machine, objects))
        sim.run(until=1_000_000)
        assert len(scheduler.table) > 0
        assert scheduler.fairness_declines == 0


class TestHeterogeneousCores:
    """§6.1: "future processors might have heterogeneous cores"."""

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            MachineSpec(n_chips=1, cores_per_chip=2,
                        core_speeds=(1.0,)).validate()
        with pytest.raises(ConfigError):
            MachineSpec(n_chips=1, cores_per_chip=2,
                        core_speeds=(1.0, -1.0)).validate()

    def test_speed_of_defaults_to_one(self):
        assert MachineSpec.amd16().speed_of(5) == 1.0

    def test_fast_core_retires_compute_sooner(self):
        spec = tiny_spec(core_speeds=(2.0, 1.0, 1.0, 1.0))
        machine = Machine(spec)
        sim = Simulator(machine, ThreadScheduler())
        def program():
            yield Compute(1000)
        sim.spawn(program(), core_id=0)
        sim.spawn(program(), core_id=1)
        sim.run(until=100_000)
        assert machine.cores[0].time == 500
        assert machine.cores[1].time == 1000

    def test_memory_latency_not_scaled(self):
        spec = tiny_spec(core_speeds=(4.0, 1.0, 1.0, 1.0))
        # Memory costs are fabric properties: identical on both cores.
        fast = Machine(spec).memory.load(0, 0, 0)
        slow = Machine(spec).memory.load(1, 0, 0)
        assert fast == slow

    def test_heterogeneous_end_to_end(self):
        spec = tiny_spec(core_speeds=(2.0, 2.0, 0.5, 0.5))
        machine = Machine(spec)
        scheduler = CoreTimeScheduler(CoreTimeConfig(
            monitor_interval=20_000, min_samples=1.5, miss_threshold=4.0))
        sim = Simulator(machine, scheduler)
        objects = []
        for index in range(16):
            region = machine.address_space.alloc(f"o{index}", 4096)
            objects.append(CtObject(f"o{index}", region.base, 4096))

        # A compute-heavy loop, so core speed dominates op latency.
        def make(core_id):
            rng = make_rng(1, core_id)
            def program():
                while True:
                    yield Compute(3000)
                    obj = objects[rng.randrange(len(objects))]
                    yield CtStart(obj)
                    yield Scan(obj.addr, obj.size, 2)
                    yield CtEnd()
            return program()

        threads = sim.spawn_per_core(make)
        sim.run(until=1_500_000)
        assert sim.total_ops > 0
        # Threads homed on fast cores retire more operations (their
        # compute runs at 4x the slow cores' speed; operations may
        # execute on any core, so count per thread, not per core).
        # Shared queueing at object homes compresses the gap well below
        # the raw 4x compute ratio.
        fast_ops = threads[0].ops_completed + threads[1].ops_completed
        slow_ops = threads[2].ops_completed + threads[3].ops_completed
        assert fast_ops > 1.1 * slow_ops, (fast_ops, slow_ops)
