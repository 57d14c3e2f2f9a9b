"""Behavioral tests for the time-sharing policies (rr/cfs/sjf/mlfq)."""

from __future__ import annotations

import pytest

from repro.cpu.machine import Machine
from repro.errors import ConfigError
from repro.sched.cfs import CFSScheduler
from repro.sched.mlfq import MLFQScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sched.sjf import ShortestJobFirstScheduler
from repro.sched.timeshare import TimeSharingScheduler
from repro.sim.engine import Simulator
from repro.threads.program import Compute
from repro.threads.thread import SimThread
from repro.workloads.synthetic import ObjectOpsSpec, ObjectOpsWorkload

from tests.helpers import tiny_spec


def dummy():
    yield Compute(1)


def make_thread(name="t"):
    return SimThread(dummy(), name)


class TestConfigValidation:
    def test_quantum_must_be_positive(self):
        with pytest.raises(ConfigError):
            RoundRobinScheduler(quantum=0)
        with pytest.raises(ConfigError):
            TimeSharingScheduler(quantum=-5)

    def test_sjf_alpha_range(self):
        with pytest.raises(ConfigError):
            ShortestJobFirstScheduler(alpha=0.0)
        with pytest.raises(ConfigError):
            ShortestJobFirstScheduler(alpha=1.5)
        assert ShortestJobFirstScheduler(alpha=1.0).alpha == 1.0

    def test_mlfq_knobs(self):
        with pytest.raises(ConfigError):
            MLFQScheduler(levels=0)
        with pytest.raises(ConfigError):
            MLFQScheduler(decay=1.0)
        with pytest.raises(ConfigError):
            MLFQScheduler(decay_interval=0)


class TestPreemptionMechanics:
    def setup_pair(self, scheduler):
        machine = Machine(tiny_spec())
        scheduler.bind(machine)
        core = machine.cores[0]
        running, waiting = make_thread("running"), make_thread("waiting")
        core.current = running
        core.runqueue.push(waiting)
        return core, running, waiting

    def test_exhausted_slice_requeues_at_tail(self):
        scheduler = RoundRobinScheduler(quantum=100)
        core, running, waiting = self.setup_pair(scheduler)
        running.ct_started_at = 0
        scheduler.on_ct_end(running, core, 150)  # 150 >= quantum
        assert core.current is None
        assert list(core.runqueue) == [waiting, running]
        assert scheduler.preemptions == 1
        assert scheduler._slice_used[running.tid] == 0  # slice reset

    def test_unexpired_slice_keeps_running(self):
        scheduler = RoundRobinScheduler(quantum=1000)
        core, running, waiting = self.setup_pair(scheduler)
        running.ct_started_at = 0
        scheduler.on_ct_end(running, core, 150)
        assert core.current is running
        assert scheduler.preemptions == 0

    def test_empty_queue_never_preempts(self):
        scheduler = RoundRobinScheduler(quantum=10)
        machine = Machine(tiny_spec())
        scheduler.bind(machine)
        core = machine.cores[0]
        running = make_thread("running")
        core.current = running
        running.ct_started_at = 0
        scheduler.on_ct_end(running, core, 10_000)
        assert core.current is running

    def test_slice_accumulates_across_short_ops(self):
        scheduler = RoundRobinScheduler(quantum=100)
        core, running, waiting = self.setup_pair(scheduler)
        for start in (0, 60):
            running.ct_started_at = start
            scheduler.on_ct_end(running, core, start + 60)
            if core.current is None:  # re-dispatch by hand
                core.runqueue.remove(running)
                core.current = running
        # 60 + 60 crossed the quantum on the second boundary.
        assert scheduler.preemptions == 1


class TestCFS:
    def test_late_arrival_starts_at_pack_minimum(self):
        scheduler = CFSScheduler()
        scheduler._vruntime = {1: 500, 2: 900}
        assert scheduler._vrt(99) == 500

    def test_pick_next_prefers_minimum_vruntime(self):
        scheduler = CFSScheduler(granularity=100)
        core, running, waiting = TestPreemptionMechanics().setup_pair(
            scheduler)
        hungry = make_thread("hungry")
        core.runqueue.push(hungry)
        scheduler._vruntime = {running.tid: 500, waiting.tid: 400,
                               hungry.tid: 10}
        running.ct_started_at = 0
        scheduler.on_ct_end(running, core, 200)  # vrt 700 > 10 + 100
        assert core.current is None
        assert list(core.runqueue)[0] is hungry

    def test_done_thread_forgotten(self):
        scheduler = CFSScheduler()
        machine = Machine(tiny_spec())
        scheduler.bind(machine)
        thread = make_thread()
        scheduler._vruntime[thread.tid] = 123
        scheduler.on_thread_done(thread, machine.cores[0], 0)
        assert thread.tid not in scheduler._vruntime


class TestSJF:
    def test_first_observation_seeds_the_estimate(self):
        scheduler = ShortestJobFirstScheduler(alpha=0.5)
        thread = make_thread()
        scheduler._account(thread, None, 100, 400)
        assert scheduler._estimate[thread.tid] == 400.0

    def test_ewma_update(self):
        scheduler = ShortestJobFirstScheduler(alpha=0.25)
        thread = make_thread()
        scheduler._account(thread, None, 0, 400)
        scheduler._account(thread, None, 0, 800)
        assert scheduler._estimate[thread.tid] == pytest.approx(
            0.25 * 800 + 0.75 * 400)

    def test_pick_next_prefers_shortest_estimate(self):
        scheduler = ShortestJobFirstScheduler(quantum=10)
        core, running, waiting = TestPreemptionMechanics().setup_pair(
            scheduler)
        quick = make_thread("quick")
        core.runqueue.push(quick)
        scheduler._estimate = {running.tid: 500.0, waiting.tid: 300.0,
                               quick.tid: 50.0}
        running.ct_started_at = 0
        scheduler.on_ct_end(running, core, 100)
        assert list(core.runqueue)[0] is quick


class TestMLFQ:
    def test_levels_bucket_by_penalty(self):
        scheduler = MLFQScheduler(quantum=100, levels=3)
        thread = make_thread()
        tid = thread.tid
        assert scheduler._level(tid) == 0
        scheduler._penalty[tid] = 450  # >= 4 * quantum
        assert scheduler._level(tid) == 1
        scheduler._penalty[tid] = 10_000  # clamped to levels - 1
        assert scheduler._level(tid) == 2

    def test_penalty_decays_per_epoch(self):
        scheduler = MLFQScheduler(decay=0.5, decay_interval=1000)
        thread = make_thread()
        scheduler._penalty[thread.tid] = 800.0
        scheduler._apply_decay(2000)  # two epochs at once
        assert scheduler._penalty[thread.tid] == pytest.approx(200.0)
        assert scheduler._decay_epoch == 2
        scheduler._apply_decay(2000)  # idempotent within an epoch
        assert scheduler._penalty[thread.tid] == pytest.approx(200.0)

    def test_lower_level_waiter_preempts_immediately(self):
        scheduler = MLFQScheduler(quantum=1000, decay_interval=10**9)
        core, running, waiting = TestPreemptionMechanics().setup_pair(
            scheduler)
        scheduler._penalty[running.tid] = 5 * 1000 * 4  # deep level
        running.ct_started_at = 0
        scheduler.on_ct_end(running, core, 10)  # slice tiny, level wins
        assert core.current is None
        assert list(core.runqueue)[0] is waiting

    def test_lower_levels_get_longer_slices(self):
        scheduler = MLFQScheduler(quantum=100, levels=3,
                                  decay_interval=10**9)
        core, running, waiting = TestPreemptionMechanics().setup_pair(
            scheduler)
        # Same level (both demoted once): slice is quantum << 1.
        scheduler._penalty[running.tid] = 500.0
        scheduler._penalty[waiting.tid] = 500.0
        scheduler._slice_used[running.tid] = 150  # > 100, < 200
        assert not scheduler._should_preempt(running, core, 0)
        scheduler._slice_used[running.tid] = 200
        assert scheduler._should_preempt(running, core, 0)


class TestPlacement:
    def test_timeshare_places_round_robin(self):
        scheduler = RoundRobinScheduler()
        scheduler.bind(Machine(tiny_spec()))
        cores = [scheduler.place_thread(make_thread()) for _ in range(5)]
        assert cores == [0, 1, 2, 3, 0]

    def test_cfs_places_least_loaded(self):
        machine = Machine(tiny_spec())
        scheduler = CFSScheduler()
        sim = Simulator(machine, scheduler)
        sim.spawn(dummy(), core_id=0)
        sim.spawn(dummy(), core_id=0)
        sim.spawn(dummy(), core_id=1)
        # Cores 2 and 3 are empty; lowest id wins the tie.
        assert scheduler.place_thread(make_thread()) == 2


class TestEndToEnd:
    @pytest.mark.parametrize("name,factory", [
        ("rr", lambda: RoundRobinScheduler(quantum=2000)),
        ("cfs", lambda: CFSScheduler(granularity=2000)),
        ("sjf", lambda: ShortestJobFirstScheduler(quantum=2000)),
        ("mlfq", lambda: MLFQScheduler(quantum=2000)),
    ])
    def test_policies_actually_preempt_under_contention(self, name,
                                                        factory):
        machine = Machine(tiny_spec())
        scheduler = factory()
        sim = Simulator(machine, scheduler)
        spec = ObjectOpsSpec(n_objects=4, object_bytes=1024,
                             think_cycles=10, threads_per_core=2,
                             seed=5)
        ObjectOpsWorkload(machine, spec).spawn_all(sim)
        sim.run(until=120_000)
        stats = scheduler.stats()
        assert stats["preemptions"] > 0, f"{name} never preempted"
