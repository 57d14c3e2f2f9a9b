"""Mutation self-test for the invariant checker, plus coverage for the
flight-recorder crash-dump path it rides on.

The self-test is the checker's own verification: every
:class:`~repro.verify.FaultPlan` kind injected into a migration-heavy
simulation must trip its matching invariant (``EXPECTED_RULE``).  A
fault that passes silently is a checker blind spot and fails here.
"""

import pytest

from repro.core.packing import CacheBudget
from repro.cpu.machine import Machine
from repro.cpu.topology import MachineSpec
from repro.errors import ConfigError, SimulationError
from repro.obs import FlightRecorder, Observability, ThreadSpawned
from repro.sched.registry import coretime_factory
from repro.sched.thread_sched import ThreadScheduler
from repro.sim.engine import Simulator, set_default_checker
from repro.verify import (EXPECTED_RULE, FAULT_KINDS, FaultPlan,
                          InvariantChecker, InvariantViolation,
                          run_mutation)
from repro.workloads.dirlookup import DirectoryLookupWorkload, DirWorkloadSpec
from repro.workloads.synthetic import ObjectOpsSpec, ObjectOpsWorkload

from tests.helpers import tiny_spec


class TestMutationSelfTest:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_each_fault_kind_trips_its_matching_invariant(self, kind):
        violation = run_mutation(kind)
        assert isinstance(violation, InvariantViolation)
        assert violation.rule == EXPECTED_RULE[kind]
        assert violation.ts >= 0
        assert violation.detail
        assert f"invariant '{violation.rule}'" in str(violation)

    def test_mutation_outcome_is_deterministic(self):
        first = run_mutation("evict_line")
        second = run_mutation("evict_line")
        assert (first.rule, first.ts, first.detail) \
            == (second.rule, second.ts, second.detail)

    def test_fault_event_precedes_violation_in_flight_dump(self):
        # The plan publishes FaultInjected *before* mutating, so the
        # recorder shows cause and effect side by side, in order.
        violation = run_mutation("corrupt_counter")
        kinds = [event["kind"] for event in violation.flight_events]
        assert "fault" in kinds
        assert "invariant" in kinds
        assert kinds.index("fault") < kinds.index("invariant")
        assert kinds[-1] == "invariant"

    def test_detection_needs_no_observability(self):
        # The checker must work on a bare sim (no bus, no recorder):
        # the violation still raises, just without flight evidence.
        machine = Machine(tiny_spec())
        sim = Simulator(machine, ThreadScheduler(),
                        checker=InvariantChecker(interval=1),
                        faults=FaultPlan.single("corrupt_counter",
                                                at_event=40))
        workload = ObjectOpsWorkload(machine, ObjectOpsSpec(
            n_objects=2, object_bytes=256, think_cycles=0, seed=3))
        workload.spawn_all(sim)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run(until=200_000)
        assert excinfo.value.rule == "counters"
        assert excinfo.value.flight_events == []
        assert excinfo.value.flight_text == ""

    def test_expected_rule_covers_every_kind(self):
        assert set(EXPECTED_RULE) == set(FAULT_KINDS)


class TestStackInvariants:
    """The checker re-derives each core's recency stack from its slots:
    a corrupted count or slot trips ``residency``, and ``cache_capacity``
    counts a level's lines instead of trusting its stored size."""

    @staticmethod
    def warm_stack():
        machine = Machine(tiny_spec())
        checker = InvariantChecker(interval=1_000_000)
        sim = Simulator(machine, ThreadScheduler(), checker=checker)
        ObjectOpsWorkload(machine, ObjectOpsSpec(
            n_objects=4, object_bytes=1024, think_cycles=0,
            seed=3)).spawn_all(sim)
        sim.run(until=100_000)
        checker.check(100_000)                  # clean before corruption
        stack = max(machine.memory.stacks, key=lambda s: s.n2)
        assert stack.n1 and stack.n2
        return checker, stack

    @staticmethod
    def violated_rule(checker) -> str:
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(100_000)
        return excinfo.value.rule

    def test_corrupt_count_trips_residency(self):
        checker, stack = self.warm_stack()
        stack.n2 -= 1
        assert self.violated_rule(checker) == "residency"

    def test_runs_claiming_one_line_trip_residency(self):
        checker, stack = self.warm_stack()
        runs = list(stack.runs.values())
        alone = next(run for run in runs if run.lo == run.hi)
        other = next(run for run in runs if run is not alone)
        # ``alone`` keeps its stamp, so both levels keep their sizes, but
        # now claims ``other``'s first line.
        stamp = alone.lo + alone.d
        del stack.runs[alone.lo]
        alone.lo = alone.hi = other.lo
        alone.d = stamp - other.lo
        assert self.violated_rule(checker) == "residency"

    def test_capacity_counts_lines_not_stored_size(self):
        checker, stack = self.warm_stack()
        # With the boundary below the oldest run every L2 line reads as
        # L1's, while ``n1`` stays in bounds.
        oldest = stack.head.newer
        stack.edge = oldest.lo + oldest.d
        assert len(stack.l1) <= stack.l1.capacity
        assert self.violated_rule(checker) == "cache_capacity"


def _unclustered_pairs(machine):
    workload = ObjectOpsWorkload(machine, ObjectOpsSpec(
        n_objects=64, object_bytes=4096, pair_probability=0.8,
        think_cycles=12))
    for obj in workload.objects:
        obj.cluster_key = None             # learning must do the work
    return workload


#: The §6.2 configurations of experiments E8-E11
#: (``repro.bench.figures``): runtime factory, workload factory, and a
#: horizon long enough for the policy to act (LFU evicts from about
#: 2.2M cycles on), which the last entry confirms on the runtime.
SECTION_6_2 = {
    "e8-replication": (
        coretime_factory(replicate_read_only=True,
                         replication_heat_factor=2.0),
        lambda machine: ObjectOpsWorkload(machine, ObjectOpsSpec(
            n_objects=96, object_bytes=4096, popularity="zipf",
            zipf_s=1.1, think_cycles=12, with_locks=False)),
        400_000,
        lambda runtime: runtime.replication.replicas_created > 0),
    "e9-lfu": (
        coretime_factory(lfu_replacement=True, lfu_margin=1.5),
        lambda machine: DirectoryLookupWorkload(
            machine, DirWorkloadSpec.scaled(
                8, n_dirs=1024, popularity="oscillating",
                oscillation_period=800_000, oscillation_rotate=True)),
        2_400_000,
        lambda runtime: runtime.replacement.evictions > 0),
    "e10-autocluster": (
        coretime_factory(packing="balanced", return_home=False,
                         auto_cluster=True, auto_cluster_threshold=16),
        _unclustered_pairs,
        500_000,
        lambda runtime: any(obj.cluster_key
                            for obj in runtime.table.objects())),
    "e11-hash": (
        coretime_factory(packing="hash"),
        lambda machine: DirectoryLookupWorkload(
            machine, DirWorkloadSpec.scaled(8, n_dirs=320)),
        400_000,
        lambda runtime: len(runtime.table) > 0),
}


def run_section_6_2(name):
    """Run one configuration under the ``object_table`` rule; returns
    the runtime."""
    scheduler_factory, workload_factory, horizon, _ = SECTION_6_2[name]
    machine = Machine(MachineSpec.scaled(8))
    scheduler = scheduler_factory()
    sim = Simulator(machine, scheduler,
                    checker=InvariantChecker(rules=("object_table",)))
    workload_factory(machine).spawn_all(sim)
    sim.run(until=horizon)
    return scheduler


class TestPackingBudgets:
    """``object_table`` also checks that each core's packing budget is
    charged exactly the footprints of the objects assigned to it."""

    @pytest.mark.parametrize("name", sorted(SECTION_6_2))
    def test_section_6_2_policies_keep_the_table_consistent(self, name):
        runtime = run_section_6_2(name)
        policy_acted = SECTION_6_2[name][3]
        assert policy_acted(runtime)

    def test_a_dropped_refund_trips_object_table(self, monkeypatch):
        monkeypatch.setattr(CacheBudget, "refund",
                            lambda budget, size: None)
        with pytest.raises(InvariantViolation) as excinfo:
            run_section_6_2("e11-hash")
        assert excinfo.value.rule == "object_table"
        assert "cache budget" in excinfo.value.detail


class TestConfigValidation:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(kinds=("explode",))

    def test_fault_plan_bounds_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(at_event=0)
        with pytest.raises(ConfigError):
            FaultPlan(count=-1)

    def test_unknown_invariant_rule_rejected(self):
        with pytest.raises(ConfigError):
            InvariantChecker(rules=("nonsense",))

    def test_checker_interval_must_be_positive(self):
        with pytest.raises(ConfigError):
            InvariantChecker(interval=0)

    def test_default_checker_factory_attaches_to_new_sims(self):
        created = []

        def factory():
            checker = InvariantChecker(interval=8)
            created.append(checker)
            return checker

        set_default_checker(factory)
        try:
            sim = Simulator(Machine(tiny_spec()), ThreadScheduler())
            assert sim.checker is created[0]
        finally:
            set_default_checker(None)
        assert Simulator(Machine(tiny_spec()),
                         ThreadScheduler()).checker is None


class TestFlightCrashDump:
    def _recorder_with(self, n, capacity=8):
        recorder = FlightRecorder(capacity=capacity)
        for i in range(n):
            recorder.record(ThreadSpawned(i * 10, 0, f"t{i}"))
        return recorder

    def test_tail_is_bounded_and_oldest_first(self):
        recorder = self._recorder_with(20)
        tail = recorder.tail(5)
        assert len(tail) == 5
        assert [event["ts"] for event in tail] == [150, 160, 170, 180, 190]
        assert all(event["kind"] == "spawn" for event in tail)

    def test_tail_edge_limits(self):
        recorder = self._recorder_with(20)
        assert recorder.tail(0) == []
        assert recorder.tail(-3) == []
        assert len(recorder.tail(100)) == 8  # capped by ring capacity

    def test_violation_drains_recorder_bounded(self):
        recorder = self._recorder_with(8)
        violation = InvariantViolation("heap", "boom", 99,
                                       flight=recorder, max_flight=3)
        assert len(violation.flight_events) == 3
        assert violation.flight_events[-1]["thread"] == "t7"
        assert "spawn" in violation.flight_text
        assert "boom" in str(violation)

    def test_violation_without_recorder_has_empty_flight(self):
        violation = InvariantViolation("heap", "boom", 7)
        assert violation.flight_events == []
        assert violation.flight_text == ""

    def test_on_crash_writes_dump_file(self, tmp_path):
        path = tmp_path / "crash.txt"
        obs = Observability(flight=16, flight_path=str(path))
        obs.bus.publish(ThreadSpawned(1, 0, "t0"))
        assert obs.on_crash(SimulationError("dead")) == str(path)
        text = path.read_text()
        assert "flight recorder" in text
        assert "SimulationError: dead" in text
        assert obs.flight.dumps == 1

    def test_on_crash_falls_back_to_stderr(self, capsys):
        obs = Observability(flight=16)
        obs.bus.publish(ThreadSpawned(1, 0, "t0"))
        assert obs.on_crash(SimulationError("dead")) is None
        assert "flight recorder" in capsys.readouterr().err

    def test_on_crash_noop_with_empty_ring(self):
        obs = Observability(flight=16)
        assert obs.on_crash(SimulationError("dead")) is None
        assert obs.flight.dumps == 0

    def test_engine_crash_dumps_flight_recorder(self, tmp_path):
        # End to end: a run that dies with SimulationError leaves a
        # post-mortem dump at flight_path before re-raising.
        path = tmp_path / "postmortem.txt"
        obs = Observability(flight=32, flight_path=str(path))
        sim = Simulator(Machine(tiny_spec()), ThreadScheduler(), obs=obs)

        def bad_program():
            yield object()  # not a simulator request -> SimulationError

        sim.spawn(bad_program(), "bad", core_id=0)
        with pytest.raises(SimulationError):
            sim.run(until=10_000)
        assert path.exists()
        assert obs.flight.dumps == 1
        assert "spawn" in path.read_text()
