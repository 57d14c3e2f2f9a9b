"""Tests for repro.workloads.dirlookup and repro.workloads.synthetic, and
for the program item set every workload draws from."""

import pytest

from repro.cpu.machine import Machine
from repro.errors import ConfigError
from repro.sched.thread_sched import ThreadScheduler
from repro.sim.engine import Simulator
from repro.threads.program import (ITEM_TYPES, Acquire, Compute, CtEnd,
                                   CtStart, Release, Scan)
from repro.workloads import scenarios
from repro.workloads.dirlookup import (DirectoryLookupWorkload,
                                       DirWorkloadSpec)
from repro.workloads.synthetic import ObjectOpsSpec, ObjectOpsWorkload
from repro.workloads.webserver import WebServerSpec, WebServerWorkload

from tests.helpers import tiny_spec


def tiny_dir_spec(**overrides):
    fields = dict(n_dirs=4, files_per_dir=32, cluster_bytes=512,
                  threads_per_core=1, think_cycles=10)
    fields.update(overrides)
    return DirWorkloadSpec(**fields)


class TestDirWorkloadSpec:
    def test_total_data_bytes(self):
        spec = DirWorkloadSpec(n_dirs=10, files_per_dir=1000)
        assert spec.total_data_bytes == 10 * 1000 * 32

    def test_paper_defaults(self):
        spec = DirWorkloadSpec()
        assert spec.files_per_dir == 1000     # paper: 1,000 entries
        assert spec.total_data_bytes == spec.n_dirs * 32_000  # of 32 B

    def test_scaled_preserves_ratio(self):
        spec = DirWorkloadSpec.scaled(8)
        assert spec.files_per_dir == 125

    def test_validation(self):
        with pytest.raises(ConfigError):
            DirWorkloadSpec(n_dirs=0).validate()
        with pytest.raises(ConfigError):
            DirWorkloadSpec(think_cycles=-1).validate()


class TestDirectoryLookupWorkload:
    def test_program_emits_figure3_sequence(self):
        machine = Machine(tiny_spec())
        workload = DirectoryLookupWorkload(machine, tiny_dir_spec())
        program = workload.make_program(0)
        items = [next(program) for _ in range(7)]
        kinds = [type(i) for i in items]
        assert kinds[0] is Compute              # think
        assert kinds[1] is CtStart              # ct_start(dir)
        assert kinds[2] is Acquire              # per-directory spin lock
        assert kinds[3] is Scan                 # the linear search
        assert kinds[4] is Release
        assert kinds[5] is CtEnd                # ct_end()
        assert kinds[6] is Compute              # next iteration

    def test_spawn_all_threads_per_core(self):
        machine = Machine(tiny_spec())
        sim = Simulator(machine, ThreadScheduler())
        workload = DirectoryLookupWorkload(
            machine, tiny_dir_spec(threads_per_core=3))
        threads = workload.spawn_all(sim)
        assert len(threads) == 3 * machine.n_cores
        per_core = {}
        for thread in threads:
            per_core[thread.home_core] = \
                per_core.get(thread.home_core, 0) + 1
        assert all(count == 3 for count in per_core.values())

    def test_end_to_end_resolutions(self):
        machine = Machine(tiny_spec())
        sim = Simulator(machine, ThreadScheduler())
        workload = DirectoryLookupWorkload(machine, tiny_dir_spec())
        workload.spawn_all(sim)
        sim.run(until=200_000)
        assert sim.total_ops > 0
        assert workload.resolutions > 0

    def test_deterministic_across_runs(self):
        def run():
            machine = Machine(tiny_spec())
            sim = Simulator(machine, ThreadScheduler())
            workload = DirectoryLookupWorkload(machine, tiny_dir_spec())
            workload.spawn_all(sim)
            sim.run(until=200_000)
            return sim.total_ops
        assert run() == run()


class TestObjectOpsWorkload:
    def test_objects_allocated_disjoint(self):
        machine = Machine(tiny_spec())
        workload = ObjectOpsWorkload(
            machine, ObjectOpsSpec(n_objects=4, object_bytes=1024))
        addresses = sorted(o.addr for o in workload.objects)
        for a, b in zip(addresses, addresses[1:]):
            assert b - a >= 1024

    def test_write_fraction_generates_stores(self):
        machine = Machine(tiny_spec())
        sim = Simulator(machine, ThreadScheduler())
        workload = ObjectOpsWorkload(
            machine, ObjectOpsSpec(n_objects=4, object_bytes=512,
                                   write_fraction=1.0))
        workload.spawn_all(sim)
        sim.run(until=100_000)
        stores = sum(machine.memory.counters[c].stores
                     for c in range(machine.n_cores))
        # Lock stores plus one data store per op.
        assert stores > sim.total_ops * 2

    def test_read_only_flag_follows_write_fraction(self):
        machine = Machine(tiny_spec())
        read_only = ObjectOpsWorkload(
            machine, ObjectOpsSpec(n_objects=2, with_locks=False))
        assert all(o.read_only for o in read_only.objects)
        machine2 = Machine(tiny_spec())
        writable = ObjectOpsWorkload(
            machine2, ObjectOpsSpec(n_objects=2, write_fraction=0.5,
                                    with_locks=False))
        assert not any(o.read_only for o in writable.objects)

    def test_pairs_get_cluster_keys(self):
        machine = Machine(tiny_spec())
        workload = ObjectOpsWorkload(
            machine, ObjectOpsSpec(n_objects=4, pair_probability=0.5))
        keys = [o.cluster_key for o in workload.objects]
        assert keys[0] == keys[1]
        assert keys[2] == keys[3]
        assert keys[0] != keys[2]

    def test_no_locks_mode(self):
        machine = Machine(tiny_spec())
        sim = Simulator(machine, ThreadScheduler())
        workload = ObjectOpsWorkload(
            machine, ObjectOpsSpec(n_objects=2, with_locks=False))
        workload.spawn_all(sim)
        sim.run(until=50_000)
        acquires = sum(machine.memory.counters[c].lock_acquires
                      for c in range(machine.n_cores))
        assert acquires == 0

    def test_scan_fraction_bounds(self):
        with pytest.raises(ConfigError):
            ObjectOpsSpec(scan_fraction=1.5).validate()

    def test_validation(self):
        with pytest.raises(ConfigError):
            ObjectOpsSpec(n_objects=0).validate()
        with pytest.raises(ConfigError):
            ObjectOpsSpec(write_fraction=-0.1).validate()


class TestItemSet:
    def test_workloads_yield_exactly_the_item_types(self):
        """The item set is what the workloads yield: an item class (and
        its engine handler) that no workload yields has no user."""
        builds = [
            lambda machine: DirectoryLookupWorkload(machine,
                                                    tiny_dir_spec()),
            lambda machine: WebServerWorkload(machine, WebServerSpec()),
            lambda machine: ObjectOpsWorkload(machine, ObjectOpsSpec()),
        ] + [lambda machine, name=name: scenarios.build(
                 machine, scenarios.ScenarioSpec(name=name))
             for name in scenarios.names()]
        seen = set()
        for build in builds:
            program = build(Machine(tiny_spec())).make_program(0)
            seen.update(type(next(program)) for _ in range(200))
        assert seen == set(ITEM_TYPES)
