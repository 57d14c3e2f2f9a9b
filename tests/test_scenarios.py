"""The scenario catalog: registry semantics and per-scenario conformance.

The conformance half parametrizes over every registry entry so a newly
registered scenario is covered the moment it exists: same-seed
determinism, agreement of every memory access with the reference memory
model, and a clean invariant-checker run all come from the fuzzer's
:func:`check_case` (the same reference differential CI fuzz runs).
The ``phase_shift`` pin proves the scenario does what its name claims:
the rebalancer observes the migrating hot set and moves objects.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.coretime import CoreTimeConfig, CoreTimeScheduler
from repro.cpu.machine import Machine
from repro.cpu.topology import MachineSpec
from repro.errors import ConfigError
from repro.sim.engine import Simulator
from repro.verify import check_case, generate_case
from repro.workloads import scenarios
from repro.workloads.scenarios import (ScenarioSpec, build, compile_spec,
                                       register)
from repro.workloads.synthetic import ObjectOpsSpec, ObjectOpsWorkload

ALL_NAMES = scenarios.names()


@pytest.fixture(autouse=True)
def _restore_registry():
    """Tests may register scenarios; leave the registry as found."""
    before = dict(scenarios._REGISTRY)
    flag = scenarios._builtins_registered
    yield
    scenarios._REGISTRY.clear()
    scenarios._REGISTRY.update(before)
    scenarios._builtins_registered = flag


class TestRegistry:
    def test_ships_the_promised_catalog(self):
        assert len(ALL_NAMES) >= 6
        assert {"zipf_kv", "pipeline", "rcu_read_mostly", "diurnal_burst",
                "phase_shift", "cpu_storm"} <= set(ALL_NAMES)

    def test_fuzzable_axis_is_a_subset(self):
        assert set(scenarios.fuzzable_names()) <= set(ALL_NAMES)

    def test_entries_carry_report_metadata(self):
        for item in scenarios.entries():
            assert item.summary
            assert item.stress

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(ConfigError) as exc:
            scenarios.resolve("nope")
        message = str(exc.value)
        for name in ALL_NAMES:
            assert name in message

    def test_register_rejects_duplicates_unless_replace(self):
        compile = scenarios.entry("zipf_kv").compile
        with pytest.raises(ConfigError, match="already registered"):
            register("zipf_kv", compile)
        item = register("zipf_kv", compile, summary="override",
                        replace=True)
        assert scenarios.entry("zipf_kv") is item

    def test_user_registration_reaches_every_consumer(self):
        register("custom", lambda spec: ObjectOpsSpec(
            n_objects=2, object_bytes=256, seed=spec.seed))
        assert "custom" in scenarios.names()
        assert "custom" in scenarios.fuzzable_names()
        machine = Machine(MachineSpec.tiny())
        workload = build(machine, ScenarioSpec(name="custom"))
        assert isinstance(workload, ObjectOpsWorkload)


class TestScenarioSpec:
    def test_validate_rejects_unknown_name_with_registry_list(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioSpec(name="nope").validate()
        assert "zipf_kv" in str(exc.value)

    def test_validate_rejects_bad_knobs(self):
        with pytest.raises(ConfigError, match="scale"):
            ScenarioSpec(scale=0).validate()
        with pytest.raises(ConfigError, match="threads_per_core"):
            ScenarioSpec(threads_per_core=-1).validate()

    def test_scale_and_tpc_overrides_reach_the_compiled_spec(self):
        base = compile_spec(ScenarioSpec(name="zipf_kv"))
        scaled = compile_spec(ScenarioSpec(name="zipf_kv", scale=2.0,
                                           threads_per_core=3))
        assert scaled.n_objects == 2 * base.n_objects
        assert scaled.threads_per_core == 3
        assert base.threads_per_core != 3

    def test_seed_flows_into_the_compiled_spec(self):
        assert compile_spec(ScenarioSpec(name="zipf_kv", seed=99)).seed \
            == 99

    def test_total_data_bytes_matches_compiled_footprint(self):
        spec = ScenarioSpec(name="cpu_storm")
        assert spec.total_data_bytes == compile_spec(spec).total_bytes


@pytest.mark.parametrize("name", ALL_NAMES)
class TestScenarioConformance:
    def test_compile_is_deterministic(self, name):
        spec = ScenarioSpec(name=name, seed=13)
        assert compile_spec(spec) == compile_spec(spec)

    def test_build_is_seed_deterministic(self, name):
        # Two builds from the same spec must produce byte-identical
        # programs; check_case below proves the full event streams
        # match, here we pin the cheap structural part.
        machines = [Machine(MachineSpec.tiny()) for _ in range(2)]
        workloads = [build(machine, ScenarioSpec(name=name, seed=5))
                     for machine in machines]
        a, b = workloads
        assert a.spec == b.spec
        assert [obj.name for obj in a.objects] \
            == [obj.name for obj in b.objects]

    def test_kernels_reruns_and_invariants(self, name):
        # check_case = invariant checker + same-seed determinism + the
        # reference memory-model differential, with the scenario
        # workload swapped in for the raw knobs.
        case = generate_case(77).replace(
            scheduler="coretime", scenario=name, horizon=40_000)
        failure = check_case(case)
        assert failure is None, f"{name}: {failure}"


class TestPhaseShiftPin:
    def test_hot_set_migration_provokes_rebalancer_moves(self):
        # The scenario's contract: the rotating hot window must make
        # CoreTime's rebalancer actually reassign objects (≥1 move) —
        # otherwise "stresses the rebalancer" would be an empty claim.
        machine = Machine(MachineSpec.tiny())
        scheduler = CoreTimeScheduler(
            CoreTimeConfig(monitor_interval=10_000))
        sim = Simulator(machine, scheduler)
        build(machine, ScenarioSpec(name="phase_shift")).spawn_all(sim)
        sim.run(until=300_000)
        assert scheduler.stats()["rebalance_moves"] >= 1


class TestSweepIntegration:
    def test_scenario_kind_round_trips_through_case_json(self):
        from repro.sweep.spec import workload_from_dict, workload_to_dict
        spec = ScenarioSpec(name="pipeline", seed=3, scale=1.5)
        data = workload_to_dict("scenario", spec)
        assert workload_from_dict("scenario", data) == spec

    def test_unknown_scenario_fails_deserialization_with_names(self):
        from repro.sweep.spec import workload_from_dict
        with pytest.raises(ConfigError) as exc:
            workload_from_dict("scenario", {"name": "nope"})
        assert "zipf_kv" in str(exc.value)

    def test_preset_covers_catalog_and_registry(self):
        from repro.sched import registry
        from repro.sweep.presets import PRESETS
        spec = PRESETS["scenarios"]()
        assert tuple(w.label for w in spec.workloads) == ALL_NAMES
        assert set(spec.schedulers) == set(registry.names())
        assert spec.schedulers[:2] == ("thread", "coretime")
        # The measurement region must reach CoreTime's benchmark
        # monitor interval, or the rebalancer never acts (E12's trap).
        from repro.sched.registry import BENCH_MONITOR_INTERVAL
        assert (spec.warmup_cycles + spec.measure_cycles
                > 2 * BENCH_MONITOR_INTERVAL)

    def test_runner_executes_a_scenario_cell(self):
        from repro.sweep.presets import PRESETS
        from repro.sweep.runner import execute_case
        case = next(iter(PRESETS["scenarios"]().expand()))
        case = dataclasses.replace(case, warmup_cycles=2_000,
                                   measure_cycles=6_000)
        point = execute_case(case)
        assert point.ops > 0


class TestBenchIntegration:
    def test_run_scenario_reports_thread_vs_coretime(self):
        from repro.bench.figures import run_scenario
        result = run_scenario("zipf_kv", warmup_cycles=2_000,
                              measure_cycles=6_000)
        assert result.name == "scenario-zipf_kv"
        assert [series.label for series in result.series] \
            == ["thread", "coretime"]
        assert "zipf_kv" in result.report

    def test_unknown_scenario_raises_with_registry_list(self):
        from repro.bench.figures import run_scenario
        with pytest.raises(ConfigError) as exc:
            run_scenario("nope")
        assert "zipf_kv" in str(exc.value)

    def test_cli_lists_scenarios(self, capsys):
        from repro.bench.__main__ import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_NAMES:
            assert name in out


class TestFuzzIntegration:
    def test_scenario_round_trips_through_case_json(self):
        from repro.verify.fuzz import FuzzCase
        case = FuzzCase(scenario="phase_shift")
        assert FuzzCase.from_json(case.to_json()).scenario == "phase_shift"

    def test_stored_cases_from_before_the_axis_still_load(self):
        from repro.verify.fuzz import FuzzCase
        case = FuzzCase.from_json('{"seed":9,"scheduler":"thread"}')
        assert case.scenario == ""

    def test_generator_draws_scenarios_from_the_fuzzable_axis(self):
        drawn = {generate_case(seed).scenario for seed in range(0, 60)}
        assert drawn - {""} <= set(scenarios.fuzzable_names())
        assert drawn - {""}, "no scenario drawn in 60 seeds"

    def test_shrink_drops_the_scenario_first(self):
        from repro.verify.fuzz import _shrink_candidates
        case = generate_case(12)
        assert case.scenario
        candidates = list(_shrink_candidates(case))
        assert any(c.scenario == "" for c in candidates)

    def test_scenario_case_builds_the_scenario_workload(self):
        from repro.verify.fuzz import build_workload
        machine = Machine(MachineSpec.tiny())
        case = generate_case(0).replace(scenario="pipeline")
        workload = build_workload(machine, case)
        assert type(workload).__name__ == "PipelineWorkload"
        # seed flows from the case into the scenario
        assert workload.spec.seed == case.seed
