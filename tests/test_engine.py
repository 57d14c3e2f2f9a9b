"""Tests for repro.sim.engine (the discrete-event executor)."""

from collections import Counter

import pytest

from repro.cpu.machine import Machine
from repro.cpu.topology import MachineSpec
from repro.errors import SimulationError
from repro.obs import (MigrationStarted, Observability, ThreadArrived,
                       ThreadFinished, ThreadSpawned)
from repro.sched.thread_sched import ThreadScheduler
from repro.sim.engine import Simulator
from repro.threads.program import (ITEM_TYPES, Acquire, Compute, CtEnd,
                                   CtStart, Load, OpDone, Release, Scan,
                                   Store, YieldCore)
from repro.threads.sync import SpinLock
from repro.workloads.dirlookup import DirectoryLookupWorkload, DirWorkloadSpec

from tests.helpers import tiny_spec


def make_sim(**spec_overrides):
    machine = Machine(tiny_spec(**spec_overrides))
    return Simulator(machine, ThreadScheduler())


class TestBasics:
    def test_compute_advances_core_clock(self):
        sim = make_sim()
        def program():
            yield Compute(100)
            yield Compute(50)
        sim.spawn(program(), core_id=0)
        sim.run(max_steps=10)
        assert sim.machine.cores[0].time == 150
        assert sim.machine.cores[0].counters.busy_cycles == 150

    def test_thread_completes(self):
        sim = make_sim()
        def program():
            yield Compute(1)
        thread = sim.spawn(program(), core_id=0)
        sim.run(until=1000)
        assert thread.done
        assert thread.finished_at == 1

    def test_run_needs_stop_condition(self):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.run()

    def test_load_and_store_charge_memory_latency(self):
        sim = make_sim()
        def program():
            yield Load(0)
            yield Store(0)
        sim.spawn(program(), core_id=0)
        sim.run(until=100_000)
        core = sim.machine.cores[0]
        assert core.time >= sim.machine.spec.latency.dram_base
        assert core.counters.stores == 1

    def test_scan_executes_in_one_step(self):
        sim = make_sim()
        def program():
            yield Scan(0, 64 * 6)
        sim.spawn(program(), core_id=0)
        result = sim.run(until=1_000_000)
        assert sim.machine.memory.counters[0].dram_loads == 6
        assert result.steps == 1

    def test_round_robin_placement(self):
        sim = make_sim()
        def program():
            yield Compute(1)
        threads = [sim.spawn(program()) for _ in range(6)]
        homes = [t.home_core for t in threads]
        assert homes == [0, 1, 2, 3, 0, 1]

    def test_spawn_rejects_bad_core(self):
        sim = make_sim()
        def program():
            yield Compute(1)
        with pytest.raises(SimulationError):
            sim.spawn(program(), core_id=99)

    def test_until_pauses_and_resumes(self):
        sim = make_sim()
        def program():
            while True:
                yield Compute(100)
        sim.spawn(program(), core_id=0)
        sim.run(until=1000)
        t_mid = sim.machine.cores[0].time
        assert t_mid <= 1100
        sim.run(until=2000)
        assert sim.machine.cores[0].time > t_mid

    def test_max_ops_counts_this_call(self):
        sim = make_sim()
        def program():
            while True:
                yield CtStart(_obj())
                yield CtEnd()
                yield Compute(10)
        sim.spawn(program(), core_id=0)
        sim.run(max_ops=5)
        assert sim.total_ops >= 5
        before = sim.total_ops
        sim.run(max_ops=3)
        assert sim.total_ops >= before + 3

    def test_opdone_counts_operations(self):
        sim = make_sim()
        def program():
            for _ in range(4):
                yield Compute(1)
                yield OpDone()
        sim.spawn(program(), core_id=0)
        sim.run(until=10_000)
        assert sim.total_ops == 4

    def test_unknown_item_rejected(self):
        sim = make_sim()
        def program():
            yield "banana"
        sim.spawn(program(), core_id=0)
        with pytest.raises(SimulationError):
            sim.run(until=100)


class TestDispatchTable:
    def test_dispatch_table_covers_every_item_type(self):
        sim = make_sim()
        assert set(sim._dispatch) == set(ITEM_TYPES)

    def test_dispatch_handlers_are_callable_and_distinct(self):
        handlers = list(make_sim()._dispatch.values())
        assert all(callable(h) for h in handlers)
        # Every item class gets its own handler (no accidental aliasing
        # beyond the ct_start/ct_end pair wrapping shared logic).
        assert len({h.__name__ for h in handlers}) == len(handlers)

    def test_unknown_item_raises_simulation_error(self):
        sim = make_sim()
        def rogue():
            yield Compute(5)
            yield object()  # not an instruction item
        sim.spawn(rogue(), "rogue", core_id=0)
        with pytest.raises(SimulationError, match="unknown item"):
            sim.run(max_steps=10)


def _obj():
    from repro.core.object_table import CtObject
    return CtObject("o", 0, 64)


class TestCooperativeScheduling:
    def test_yield_core_rotates_threads(self):
        sim = make_sim()
        order = []
        def program(tag):
            for _ in range(2):
                order.append(tag)
                yield Compute(10)
                yield YieldCore()
        sim.spawn(program("a"), core_id=0)
        sim.spawn(program("b"), core_id=0)
        sim.run(until=10_000)
        assert order == ["a", "b", "a", "b"]

    def test_threads_on_one_core_serialize(self):
        sim = make_sim()
        def program():
            yield Compute(100)
        sim.spawn(program(), core_id=0)
        sim.spawn(program(), core_id=0)
        sim.run(until=10_000)
        assert sim.machine.cores[0].time == 200

    def test_threads_on_two_cores_run_in_parallel(self):
        sim = make_sim()
        def program():
            yield Compute(100)
        sim.spawn(program(), core_id=0)
        sim.spawn(program(), core_id=1)
        sim.run(until=10_000)
        assert sim.machine.cores[0].time == 100
        assert sim.machine.cores[1].time == 100


class TestLocks:
    def test_uncontended_acquire_succeeds_immediately(self):
        sim = make_sim()
        lock = SpinLock.allocate(sim.machine.address_space, "l")
        def program():
            yield Acquire(lock)
            yield Compute(10)
            yield Release(lock)
        sim.spawn(program(), core_id=0)
        sim.run(until=100_000)
        assert not lock.held
        assert lock.acquires == 1
        assert sim.machine.memory.counters[0].lock_spins == 0

    def test_contended_lock_spins_then_hands_over(self):
        sim = make_sim()
        lock = SpinLock.allocate(sim.machine.address_space, "l")
        holds = []
        def program(tag):
            yield Acquire(lock)
            holds.append(tag)
            yield Compute(500)
            yield Release(lock)
        sim.spawn(program("a"), core_id=0)
        sim.spawn(program("b"), core_id=1)
        sim.run(until=1_000_000)
        assert sorted(holds) == ["a", "b"]
        counters = sim.machine.memory.counters
        assert counters[0].lock_spins + counters[1].lock_spins > 0

    def test_lock_is_mutual_exclusion(self):
        """No two threads are ever inside the critical section at once."""
        sim = make_sim()
        lock = SpinLock.allocate(sim.machine.address_space, "l")
        inside = [0]
        max_inside = [0]
        def program():
            for _ in range(5):
                yield Acquire(lock)
                inside[0] += 1
                max_inside[0] = max(max_inside[0], inside[0])
                yield Compute(100)
                inside[0] -= 1
                yield Release(lock)
        for core in range(4):
            sim.spawn(program(), core_id=core)
        sim.run(until=5_000_000)
        assert max_inside[0] == 1
        assert all(t.done for t in sim.threads)


class TestMigration:
    class RedirectingScheduler(ThreadScheduler):
        """Sends every operation to core 3."""
        name = "redirect"
        def on_ct_start(self, thread, obj, core, now):
            return 3

    def test_ct_start_migrates_thread(self):
        machine = Machine(tiny_spec())
        sim = Simulator(machine, self.RedirectingScheduler())
        def program():
            yield CtStart(_obj())
            yield Compute(10)
            yield CtEnd()
        thread = sim.spawn(program(), core_id=0)
        sim.run(until=1_000_000)
        assert thread.done
        assert thread.migrations == 1
        assert machine.cores[3].counters.migrations_in == 1
        assert machine.cores[0].counters.migrations_out == 1
        assert machine.cores[3].counters.ops_completed == 1

    def test_migration_charges_flight_time(self):
        machine = Machine(tiny_spec(migration_cost=500))
        sim = Simulator(machine, self.RedirectingScheduler())
        def program():
            yield CtStart(_obj())
            yield CtEnd()
        sim.spawn(program(), core_id=0)
        sim.run(until=1_000_000)
        # The op completed on core 3 no earlier than the flight time.
        assert machine.cores[3].time >= 500

    def test_poll_interval_quantises_arrival(self):
        machine = Machine(tiny_spec(migration_cost=500, poll_interval=300))
        sim = Simulator(machine, self.RedirectingScheduler())
        def program():
            yield CtStart(_obj())
            yield CtEnd()
        sim.spawn(program(), core_id=0)
        sim.run(until=1_000_000)
        # Arrival rounded up to the 600-cycle poll tick.
        assert machine.cores[3].time >= 600

    def test_origin_core_continues_with_other_threads(self):
        machine = Machine(tiny_spec())
        sim = Simulator(machine, self.RedirectingScheduler())
        def migrator():
            yield CtStart(_obj())
            yield Compute(1000)
            yield CtEnd()
        def worker():
            yield Compute(77)
        sim.spawn(migrator(), core_id=0)
        sim.spawn(worker(), core_id=0)
        sim.run(until=1_000_000)
        # The worker ran on core 0 while the migrator was away.
        assert machine.cores[0].counters.busy_cycles >= 77

    def test_invalid_migration_target_is_error(self):
        class BadScheduler(ThreadScheduler):
            def on_ct_start(self, thread, obj, core, now):
                return 42
        machine = Machine(tiny_spec())
        sim = Simulator(machine, BadScheduler())
        def program():
            yield CtStart(_obj())
            yield CtEnd()
        sim.spawn(program(), core_id=0)
        with pytest.raises(SimulationError):
            sim.run(until=1000)


class TestIdleAccounting:
    def test_idle_core_accumulates_idle_cycles(self):
        sim = make_sim()
        def program():
            yield Compute(100)
        sim.spawn(program(), core_id=0)
        sim.run(until=1000)
        # Core 1 never had work: idle for the whole horizon.
        assert sim.machine.cores[1].counters.idle_cycles == 1000
        # Core 0 idled after its thread finished.
        assert sim.machine.cores[0].counters.idle_cycles == 900

    def test_wakeup_ends_idle_period(self):
        machine = Machine(tiny_spec())

        class LateRedirect(ThreadScheduler):
            def on_ct_start(self, thread, obj, core, now):
                return 1
        sim = Simulator(machine, LateRedirect())
        def program():
            yield Compute(500)
            yield CtStart(_obj())
            yield Compute(100)
            yield CtEnd()
        sim.spawn(program(), core_id=0)
        sim.run(until=10_000)
        # Core 1 was idle until the migration arrived (500 + flight).
        idle = machine.cores[1].counters.idle_cycles
        assert idle >= 500 + machine.spec.migration_cost


class TestDeterminismAndTracing:
    def test_identical_runs_produce_identical_results(self):
        def build():
            sim = make_sim()
            from repro.sim.rng import make_rng
            def program(core_id):
                rng = make_rng(1, core_id)
                for _ in range(50):
                    yield Compute(rng.randrange(1, 100))
                    yield Load(rng.randrange(0, 4096))
            for core in range(4):
                sim.spawn(program(core), core_id=core)
            sim.run(until=100_000)
            return [core.time for core in sim.machine.cores], \
                sim.machine.memory.counters[0].snapshot()
        assert build() == build()

    def test_tracer_records_lifecycle(self):
        obs = Observability()
        machine = Machine(tiny_spec())
        sim = Simulator(machine, ThreadScheduler(), obs=obs)
        def program():
            yield Compute(1)
        sim.spawn(program(), core_id=0)
        sim.run(until=100)
        kinds = Counter(type(event) for event in obs.events())
        assert kinds[ThreadSpawned] == 1
        assert kinds[ThreadFinished] == 1

    def test_tracer_records_migrations(self):
        obs = Observability()
        machine = Machine(tiny_spec())
        sim = Simulator(machine, TestMigration.RedirectingScheduler(),
                        obs=obs)
        def program():
            yield CtStart(_obj())
            yield CtEnd()
        sim.spawn(program(), core_id=0)
        sim.run(until=10_000)
        kinds = Counter(type(event) for event in obs.events())
        assert kinds[MigrationStarted] == 1
        assert kinds[ThreadArrived] == 1

    def test_same_seed_event_streams_byte_identical(self, tmp_path):
        def record(tag):
            obs = Observability(events=True)
            _dirlookup_sim(obs=obs).run(until=150_000)
            path = tmp_path / f"{tag}.events.jsonl"
            obs.write_jsonl(str(path))
            return path.read_bytes()
        assert record("a") == record("b")


def _dirlookup_sim(obs=None):
    machine = Machine(tiny_spec())
    sim = Simulator(machine, ThreadScheduler(), obs=obs)
    spec = DirWorkloadSpec(n_dirs=6, files_per_dir=32, cluster_bytes=512,
                           think_cycles=10, threads_per_core=2, seed=7)
    DirectoryLookupWorkload(machine, spec).spawn_all(sim)
    return sim


class TestRunBoundaries:
    def test_resumed_run_matches_straight_run(self):
        """Stopping at ``until`` leaves the next event queued, so a run
        sliced into calls ends in exactly the state of one straight run
        (callers that drive the simulator in fixed slices rely on it)."""
        straight = _dirlookup_sim()
        res_straight = straight.run(until=150_000)
        sliced = _dirlookup_sim()
        sliced.run(until=75_000)
        res_sliced = sliced.run(until=150_000)
        assert res_sliced == res_straight
        for core_a, core_b in zip(straight.machine.cores,
                                  sliced.machine.cores):
            assert core_a.time == core_b.time
            assert core_a.steps == core_b.steps
            assert core_a.counters.snapshot() == core_b.counters.snapshot()

    def test_finite_programs_drain_the_heap(self):
        def finite(n):
            for _ in range(n):
                yield Compute(25)
                yield OpDone()

        sim = make_sim()
        n_cores = sim.machine.n_cores
        for core_id in range(n_cores):
            sim.spawn(finite(3 + core_id), f"t{core_id}", core_id=core_id)
        result = sim.run(until=1_000_000)
        assert sim._heap == []
        assert all(thread.done for thread in sim.threads)
        assert result.ops == sum(3 + c for c in range(n_cores))

    def test_compute_only_steps_run_through_the_horizon(self):
        """One step per ``Compute``; a step starting at exactly ``until``
        still runs, so 100-cycle computes take 2,001 steps per core in
        200k cycles on all 16 cores of the benchmark machine."""
        machine = Machine(MachineSpec.scaled(8))
        sim = Simulator(machine, ThreadScheduler())
        def program():
            while True:
                yield Compute(100)
        for core in range(machine.n_cores):
            sim.spawn(program(), core_id=core)
        result = sim.run(until=200_000)
        assert machine.n_cores == 16
        assert result.steps == sim.total_steps == 16 * 2001
        assert {core.time for core in machine.cores} == {200_100}


class TestRunResult:
    def test_result_reports_ops_and_throughput(self):
        sim = make_sim()
        def program():
            for _ in range(10):
                yield Compute(100)
                yield OpDone()
        sim.spawn(program(), core_id=0)
        result = sim.run(until=2000)
        assert result.ops > 0
        assert result.throughput_ops_per_sec > 0
        assert result.kops_per_sec == result.throughput_ops_per_sec / 1e3
        assert "RunResult" in str(result)
