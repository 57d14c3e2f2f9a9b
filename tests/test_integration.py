"""End-to-end integration tests: the paper's headline behaviours on a
small machine.

These are the highest-value tests in the suite: each one runs the full
stack (FAT image -> workload -> scheduler -> engine -> memory model) and
asserts a *qualitative* result from the paper.
"""


from repro.bench.harness import run_point
from repro.cpu.machine import Machine
from repro.cpu.topology import MachineSpec
from repro.core.coretime import CoreTimeConfig, CoreTimeScheduler
from repro.sched import registry
from repro.sched.registry import coretime_factory
from repro.sim.engine import Simulator
from repro.workloads.dirlookup import (DirectoryLookupWorkload,
                                       DirWorkloadSpec)

#: A small but realistic machine: scaled AMD with 4 chips x 4 cores.
SPEC = MachineSpec.scaled(16)


def workload_spec(n_dirs, **overrides):
    fields = dict(n_dirs=n_dirs, files_per_dir=64, cluster_bytes=512,
                  think_cycles=10, threads_per_core=4)
    fields.update(overrides)
    return DirWorkloadSpec(**fields)


def throughput(scheduler_name, wspec, warmup=400_000, measure=600_000):
    return run_point(SPEC, registry.resolve(scheduler_name), wspec,
                     warmup_cycles=warmup, measure_cycles=measure)


class TestFigure4aShape:
    """The headline claim: CoreTime wins once the working set exceeds
    the caches, and does not lose badly anywhere."""

    def test_coretime_wins_beyond_chip_capacity(self):
        # 160 dirs x 2 KB = 320 KB, on-chip total is ~256 KB.
        wspec = workload_spec(160)
        thread = throughput("thread", wspec)
        coretime = throughput("coretime", wspec)
        assert coretime.kops_per_sec > 1.5 * thread.kops_per_sec

    def test_coretime_migrates_only_when_it_pays(self):
        # 4 tiny dirs fit every L1/L2: no sustained misses, no table.
        wspec = workload_spec(4, files_per_dir=16)
        point = throughput("coretime", wspec)
        assert point.migrations < point.ops * 0.05

    def test_both_schedulers_complete_work_at_all_sizes(self):
        for n_dirs in (2, 16, 64):
            wspec = workload_spec(n_dirs)
            assert throughput("thread", wspec, 100_000, 200_000).ops > 0
            assert throughput("coretime", wspec, 100_000, 200_000).ops > 0


class TestCacheContents:
    """Figure 2's mechanism: partitioning beats replication."""

    def test_coretime_keeps_more_distinct_data_on_chip(self):
        from repro.mem.inspect import OFF_CHIP, residency_table

        n_dirs = 320   # 640 KB: fits on-chip partitioned, not replicated

        def resident_dirs(scheduler_factory):
            machine = Machine(SPEC)
            sim = Simulator(machine, scheduler_factory())
            workload = DirectoryLookupWorkload(machine,
                                               workload_spec(n_dirs))
            workload.spawn_all(sim)
            sim.run(until=1_500_000)
            regions = [(d.name, d.object.addr, d.object.size)
                       for d in workload.efsl.directories]
            groups = residency_table(machine.memory, regions)
            off = len(groups.get(OFF_CHIP, []))
            return n_dirs - off

        thread_resident = resident_dirs(registry.resolve("thread"))
        coretime_resident = resident_dirs(registry.resolve("coretime"))
        assert coretime_resident > thread_resident

    def test_coretime_issues_fewer_dram_loads_per_op(self):
        wspec = workload_spec(128)
        thread = throughput("thread", wspec)
        coretime = throughput("coretime", wspec)
        assert (coretime.dram_lines / coretime.ops
                < thread.dram_lines / thread.ops)


class TestRebalancing:
    """Figure 4(b)'s mechanism: rebalancing tracks a moving hot set."""

    def test_rebalancer_improves_oscillating_workload(self):
        wspec = workload_spec(
            96, popularity="oscillating", oscillation_period=300_000,
            oscillation_rotate=True)
        with_rebalance = run_point(
            SPEC, coretime_factory(monitor_interval=50_000), wspec,
            warmup_cycles=400_000, measure_cycles=1_200_000)
        without = run_point(
            SPEC, coretime_factory(monitor_interval=50_000,
                                   rebalance=False), wspec,
            warmup_cycles=400_000, measure_cycles=1_200_000)
        assert with_rebalance.kops_per_sec > without.kops_per_sec

    def test_rebalancer_actually_moves_objects(self):
        wspec = workload_spec(
            96, popularity="oscillating", oscillation_period=300_000,
            oscillation_rotate=True)
        point = run_point(
            SPEC, coretime_factory(monitor_interval=50_000), wspec,
            warmup_cycles=200_000, measure_cycles=800_000)
        assert point.scheduler_stats["rebalance_moves"] > 0


class TestCoherenceTraffic:
    """§1: implicit scheduling of read/write shared data generates
    cross-chip coherence traffic that partitioning avoids."""

    def test_coretime_reduces_data_coherence_traffic_per_op(self):
        """CoreTime converts bulk data movement (coherence transfers and
        invalidations) into small context transfers; the data traffic
        proper must drop."""
        wspec = workload_spec(128)
        thread = throughput("thread", wspec)
        coretime = throughput("coretime", wspec)
        assert (coretime.cross_chip_data_messages / coretime.ops
                < thread.cross_chip_data_messages / thread.ops)


class TestDeterminism:
    def test_full_stack_deterministic(self):
        def run_once():
            machine = Machine(SPEC)
            scheduler = CoreTimeScheduler(
                CoreTimeConfig(monitor_interval=50_000))
            sim = Simulator(machine, scheduler)
            workload = DirectoryLookupWorkload(machine, workload_spec(32))
            workload.spawn_all(sim)
            sim.run(until=500_000)
            return (sim.total_ops, sim.total_migrations,
                    len(scheduler.table))
        assert run_once() == run_once()
