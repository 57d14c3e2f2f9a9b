"""Conformance suite: every registry scheduler obeys the runtime contract.

Parametrized over :func:`repro.sched.registry.names` so a newly
registered policy is tested the moment it exists, with no edits here.
The contract (DESIGN.md §13):

* every spawned thread runs to completion on finite programs — no
  thread is lost across placements, preemptions, or migrations;
* ``place_thread`` only ever returns a core the machine has, including
  through the engine's unpinned :meth:`Simulator.spawn` path;
* same-seed reruns are byte-identical, and every memory access and the
  memory system's end state agree with the reference memory model
  (delegated to the fuzzer's :func:`check_case`, which runs the
  reference differential plus the invariant checker);
* ``describe()`` and ``stats()`` are report-ready (non-empty string,
  JSON-serializable dict with no run-relative identifiers).
"""

from __future__ import annotations

import json

import pytest

from repro.cpu.machine import Machine
from repro.sched import registry
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.threads.program import Compute
from repro.threads.thread import SimThread
from repro.verify import InvariantChecker, check_case, generate_case
from repro.workloads.synthetic import ObjectOpsSpec, ObjectOpsWorkload

from tests.helpers import tiny_spec

ALL_NAMES = registry.names()


def dummy():
    yield Compute(1)


def finite_workload(machine, n_ops: int = 12):
    """An :class:`ObjectOpsWorkload` wrapped into *finite* programs.

    The stock workload programs loop forever (benchmarks stop on a
    cycle horizon); completion conformance needs threads that actually
    finish, so each program runs ``n_ops`` operations and returns.
    """
    spec = ObjectOpsSpec(n_objects=4, object_bytes=512, think_cycles=10,
                         write_fraction=0.2, with_locks=True,
                         annotated=True, seed=11)
    workload = ObjectOpsWorkload(machine, spec)

    def make_program(core_id: int, lane: int = 0):
        rng = make_rng(spec.seed, "conformance", core_id, lane)

        def program():
            for _ in range(n_ops):
                yield Compute(spec.think_cycles)
                yield from workload._one_op(
                    rng.randrange(spec.n_objects), rng)

        return program()

    return make_program


class TestRegistryCoverage:
    def test_registry_is_a_real_zoo(self):
        # The acceptance bar: the tournament and this suite cover at
        # least eight distinct policies.
        assert len(ALL_NAMES) >= 8

    def test_fuzzable_axis_is_a_subset(self):
        assert set(registry.fuzzable_names()) <= set(ALL_NAMES)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestSchedulerConformance:
    def test_every_spawned_thread_completes(self, name):
        machine = Machine(tiny_spec())
        scheduler = registry.create(name)
        checker = InvariantChecker(interval=32)
        sim = Simulator(machine, scheduler, checker=checker)
        make_program = finite_workload(machine)
        # Unpinned spawns: the scheduler's own placement decides, and
        # two lanes per core keep run queues non-empty so preempting
        # policies actually preempt.
        threads = [
            sim.spawn(make_program(i % machine.n_cores, lane=i),
                      f"conf-{i}")
            for i in range(2 * machine.n_cores)
        ]
        sim.run(max_steps=5_000_000)
        assert len(sim.threads) == len(threads)
        assert all(thread.done for thread in threads), (
            f"{name}: unfinished threads "
            f"{[t.name for t in threads if not t.done]}")
        # Nothing left behind on any core: a lost thread would either
        # sit in a queue forever or still be "current" after the run.
        for core in machine.cores:
            assert core.current is None
            assert not core.runqueue
        assert checker.checks > 0
        assert checker.violations == 0

    def test_place_thread_stays_on_machine(self, name):
        machine = Machine(tiny_spec())
        scheduler = registry.create(name)
        scheduler.bind(machine)
        for _ in range(3 * machine.n_cores):
            core_id = scheduler.place_thread(SimThread(dummy()))
            assert 0 <= core_id < machine.n_cores

    def test_kernels_and_reruns_are_byte_identical(self, name):
        # check_case = invariants + same-seed determinism + the
        # reference memory-model differential.  scenario="" pins
        # the raw workload knobs (threads_per_core=2 keeps run queues
        # non-empty); scenario coverage lives in test_scenarios.py.
        case = generate_case(901).replace(
            scheduler=name, threads_per_core=2, horizon=40_000,
            scenario="")
        failure = check_case(case)
        assert failure is None, f"{name}: {failure}"

    def test_describe_and_stats_are_report_ready(self, name):
        scheduler = registry.create(name)
        text = scheduler.describe()
        assert isinstance(text, str) and text

        machine = Machine(tiny_spec())
        scheduler = registry.create(name)
        sim = Simulator(machine, scheduler)
        make_program = finite_workload(machine, n_ops=4)
        for i in range(machine.n_cores):
            sim.spawn(make_program(i), f"stat-{i}")
        sim.run(max_steps=1_000_000)
        stats = scheduler.stats()
        assert isinstance(stats, dict)
        encoded = json.dumps(stats)  # must be JSON-serializable
        # Global thread ids must never leak into stats — they depend on
        # process history, which would break record byte-identity.
        for thread in sim.threads:
            assert f"tid{thread.tid}" not in encoded
