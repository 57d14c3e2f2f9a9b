"""Randomized reference-differential and determinism checks.

The fuzzer shadows every memory system it runs with the naive reference
model (:mod:`repro.verify.reference`); this module applies that
differential across a seeded random matrix of topologies, workloads and
schedulers generated by the fuzzer's own case generator — the same
distribution ``python -m repro.verify fuzz`` samples in CI — and proves
it catches a bug planted in code every memory path shares.
"""

import functools

import pytest

import repro.obs
from repro.cpu.machine import Machine
from repro.cpu.topology import MachineSpec
from repro.mem.counters import aggregate
from repro.mem.system import MemorySystem
from repro.obs import EventLog
from repro.sched.registry import coretime_factory
from repro.sim.engine import Simulator
from repro.verify import InvariantChecker, check_case, generate_case
from repro.verify import fuzz
from repro.verify.__main__ import main as verify_main
from repro.verify.fuzz import (FuzzCase, build_machine, build_scheduler,
                               build_workload, run_case)
from repro.verify.reference import ReferenceMismatch, compare, shadow
from repro.workloads.dirlookup import DirectoryLookupWorkload, DirWorkloadSpec

from tests.helpers import tiny_spec

#: Disjoint from CI's fuzz range (seeds 0..24) for extra coverage.
DIFFERENTIAL_SEEDS = list(range(200, 208))


class TestReferenceDifferential:
    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_agrees_with_the_reference(self, seed):
        # Invariants, same-seed determinism, and every memory access plus
        # the end state checked against the reference model.
        failure = check_case(generate_case(seed))
        assert failure is None, str(failure)

    def test_dirlookup_rescans_at_benchmark_cache_sizes(self):
        # simbench's dirlookup under CoreTime, scaled down to 16
        # directories: most scans reread a random-length prefix of a
        # directory the scanning core already holds, so they walk runs
        # of private lines.  The fuzzer's fixed-length object scans and
        # CI's cases rarely make that pattern.
        machine = Machine(MachineSpec.scaled(8))
        shadow(machine.memory)
        sim = Simulator(machine,
                        coretime_factory(monitor_interval=50_000)())
        DirectoryLookupWorkload(machine, DirWorkloadSpec.scaled(
            8, n_dirs=16, popularity="uniform", seed=0)).spawn_all(sim)
        for until in range(50_000, 300_001, 50_000):
            sim.run(until=until)
        compare(machine.memory)
        counters = aggregate(machine.memory.counters)
        private = counters["l1_hits"] + counters["l2_hits"]
        assert private > 0.8 * sum(counters[name] for name in (
            "l1_hits", "l2_hits", "l3_hits", "remote_hits", "dram_loads"))

    def test_catches_a_planted_invalidation_bug(self, monkeypatch):
        # One extra cycle per invalidated copy, planted in the
        # invalidation rows the memory system builds: store() charges it
        # on the only memory path there is, so nothing but a model that
        # recomputes costs from the MachineSpec can notice.
        init = MemorySystem.__init__

        def planted(self, spec):
            init(self, spec)
            self._inval_rows = [
                tuple((cost + 1, link) for cost, link in row)
                for row in self._inval_rows]

        monkeypatch.setattr(MemorySystem, "__init__", planted)
        kinds = [getattr(check_case(generate_case(seed)), "kind", None)
                 for seed in range(4)]
        assert "differential" in kinds

    @pytest.mark.parametrize("traffic", ["transfers", "invalidations"])
    def test_compares_traffic_link_by_link(self, traffic):
        # Moving one message to another link keeps the total, so only a
        # link-by-link comparison notices.
        case = FuzzCase(seed=3, n_chips=4, scheduler="thread",
                        write_fraction=0.2, horizon=60_000)
        machine = build_machine(case)
        shadow(machine.memory)
        sim = Simulator(machine, build_scheduler(case))
        build_workload(machine, case).spawn_all(sim)
        sim.run(until=case.horizon)
        compare(machine.memory)
        links = getattr(machine.memory.interconnect, traffic)
        src, dst = min(links)
        links[src, dst] -= 1
        links[dst, src] = links.get((dst, src), 0) + 1
        with pytest.raises(ReferenceMismatch, match=f"{traffic} "):
            compare(machine.memory)

    def test_matrix_covers_every_scheduler(self):
        # The sampled matrix must actually exercise every fuzzable
        # registry policy, otherwise the differential above quietly
        # loses coverage as new schedulers are registered.
        from repro.verify.fuzz import scheduler_axis
        schedulers = {generate_case(seed).scheduler
                      for seed in range(0, 40)}
        assert schedulers == set(scheduler_axis())
        assert len(schedulers) >= 8

    def test_matrix_covers_every_scenario(self):
        # Same coverage contract for the scenario axis: a modest seed
        # range must draw every fuzzable scenario (plus "" for the raw
        # workload knobs) so CI fuzz and the nightly deep fuzz keep
        # exercising each one as the catalog grows.
        from repro.verify.fuzz import scenario_axis
        scenarios = {generate_case(seed).scenario
                     for seed in range(0, 60)}
        assert scenarios == set(scenario_axis()) | {""}
        assert len(scenarios) >= 7


class TestCrashes:
    """Any exception a run raises fails the case as a ``crash``, which
    shrinks to a repro instead of ending the fuzz run."""

    @staticmethod
    def break_scan(monkeypatch, error):
        def scan(self, *args):
            raise error
        monkeypatch.setattr(MemorySystem, "scan", scan)

    def test_any_exception_is_a_crash(self, monkeypatch):
        self.break_scan(monkeypatch, KeyError(0))
        failure = check_case(FuzzCase(seed=1))
        assert (failure.kind, failure.detail) == ("crash", "KeyError: 0")

    def test_fuzz_shrinks_a_crash_to_a_repro(self, monkeypatch, capsys):
        self.break_scan(monkeypatch, KeyError(0))
        assert verify_main(["fuzz", "--seeds", "1"]) == 1
        out = capsys.readouterr().out
        assert "[crash] KeyError: 0" in out
        assert ("minimal repro: PYTHONPATH=src python -m repro.verify run "
                "--case") in out

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        self.break_scan(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            check_case(FuzzCase(seed=1))


class TestDeterminism:
    @pytest.mark.parametrize("seed", [300, 301, 302])
    def test_same_seed_reruns_are_byte_identical(self, seed):
        case = generate_case(seed)
        stream_a, counters_a, _ = run_case(case)
        stream_b, counters_b, _ = run_case(case)
        assert stream_a == stream_b
        assert counters_a == counters_b

    def test_rerun_without_memory_events_records_the_rest(self):
        # check_case's rerun: the memory system's non-publishing mode.
        # Seed 306 draws 4,096-byte objects.
        case = generate_case(306)
        assert case.object_bytes == 4096
        stream_a, counters_a, _ = run_case(case)
        stream_b, counters_b, _ = run_case(case, capture_memory=False)
        for kind in ('"kind":"evict"', '"kind":"invalidate"'):
            assert kind in stream_a
            assert kind not in stream_b
        assert fuzz._without_memory_events(stream_a) == stream_b
        assert counters_a == counters_b

    def test_rerun_counting_differently_fails(self, monkeypatch):
        def skewed(case, checker=None, faults=None, capture_memory=True):
            stream, counters, result = run_case(case, checker, faults,
                                                capture_memory)
            if not capture_memory:
                counters = dict(counters, l3_hits=counters["l3_hits"] + 1)
            return stream, counters, result

        monkeypatch.setattr(fuzz, "run_case", skewed)
        failure = check_case(generate_case(306))
        assert failure.kind == "determinism"
        assert "['l3_hits']" in failure.detail

    def test_a_dropped_event_fails_the_case(self, monkeypatch):
        monkeypatch.setattr(repro.obs, "EventLog",
                            functools.partial(EventLog, 50))
        failure = check_case(generate_case(300))
        assert failure.kind == "crash"
        assert "dropped" in failure.detail

    def test_first_diff_names_a_line(self):
        assert fuzz._first_diff("a\nb", "a\nc") \
            == "first divergence at line 1 (of 2 vs 2): 'b' != 'c'"
        assert fuzz._first_diff("a\nb", "a\nb\nc") \
            == "first divergence at line 2 (of 2 vs 3): None != 'c'"
        assert fuzz._first_diff("a\n\nc", "a") \
            == "first divergence at line 1 (of 3 vs 1): '' != None"
        assert fuzz._first_diff("a\nb", "a\nb\n") \
            == ("every line agrees; the streams differ from character 3: "
                "'' != '\\n'")

    def test_case_generation_is_deterministic(self):
        assert generate_case(42) == generate_case(42)
        assert generate_case(42).to_json() == generate_case(42).to_json()


class TestCheckerOnCleanRuns:
    def test_check_case_passes_full_property_suite(self):
        assert check_case(generate_case(400)) is None

    def test_checker_actually_ran_and_stayed_quiet(self):
        case = generate_case(500).replace(scheduler="coretime")
        checker = InvariantChecker(interval=64)
        run_case(case, checker=checker)
        assert checker.checks > 0
        assert checker.violations == 0


class TestSharedTopologyFactory:
    def test_tiny_spec_delegates_to_machinespec_preset(self):
        # One factory for tests and fuzzer: the helpers wrapper must not
        # drift from the preset (the defect this PR consolidates away).
        assert tiny_spec() == MachineSpec.tiny()
        assert tiny_spec(n_chips=1) == MachineSpec.tiny(n_chips=1)

    def test_preset_keeps_the_historic_test_defaults(self):
        spec = MachineSpec.tiny()
        assert (spec.n_chips, spec.cores_per_chip) == (2, 2)
        assert (spec.l1_bytes, spec.l2_bytes, spec.l3_bytes) \
            == (512, 2048, 8192)
        assert spec.migration_cost == 200
        assert spec.spin_backoff == 20
