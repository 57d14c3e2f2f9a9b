"""Tests for repro.sweep: specs, store, runner, aggregation, CLI."""

import dataclasses
import json

import pytest

from repro.cpu.topology import MachineSpec
from repro.errors import ConfigError
from repro.obs import Observability
from repro.sim.rng import derive_seed, stream_seed
from repro.sweep.aggregate import (compare_schedulers, fold_records,
                                   percentile, records_to_events,
                                   render_report)
from repro.sweep.cli import main as sweep_main
from repro.sweep.runner import (FLIGHT_TAIL, RunnerOptions,
                                execute_case_record, run_cases, run_sweep)
from repro.sweep.spec import (MachineAxis, SweepCase, SweepSpec,
                              WorkloadAxis, code_fingerprint)
from repro.sweep.store import ResultStore, make_record
from repro.workloads.dirlookup import DirWorkloadSpec

from tests.helpers import tiny_spec


def tiny_workload(n_dirs=4, **overrides):
    fields = dict(n_dirs=n_dirs, files_per_dir=16, cluster_bytes=512,
                  think_cycles=10, threads_per_core=2)
    fields.update(overrides)
    return DirWorkloadSpec(**fields)


def tiny_sweep(n_seeds=1, root_seed=42, schedulers=("thread", "coretime"),
               filters=(), name="t"):
    return SweepSpec(
        name=name,
        machines=(MachineAxis("tiny", tiny_spec()),),
        schedulers=tuple(schedulers),
        workloads=(WorkloadAxis("dirs4", "dirlookup", tiny_workload(4),
                                x=4.0),
                   WorkloadAxis("dirs8", "dirlookup", tiny_workload(8),
                                x=8.0)),
        n_seeds=n_seeds, root_seed=root_seed,
        warmup_cycles=20_000, measure_cycles=40_000,
        filters=tuple(filters))


def quick_options(**overrides):
    fields = dict(workers=0)
    fields.update(overrides)
    return RunnerOptions(**fields)


# ---------------------------------------------------------------------------
# satellite: unified seed derivation (pinned so it cannot drift)
# ---------------------------------------------------------------------------

class TestDeriveSeed:
    def test_pinned_values(self):
        # These exact values are shared state between repro-sweep
        # stores, bench --seed sweeps and verify-fuzz case generation;
        # changing the derivation silently invalidates all of them.
        assert derive_seed(42, "tiny", "thread", "dirs4", 0) \
            == 12356361029326498610
        assert derive_seed(42, "tiny", "thread", "dirs4", 1) \
            == 12636629191326829668
        assert derive_seed(0, "fuzz-case") == 12020656014277879409
        assert derive_seed(9, "coretime", 2) == 15738961786421875883

    def test_matches_stream_seed(self):
        assert derive_seed(7, "a", 1) == stream_seed(7, "a", 1)

    def test_order_sensitive(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


# ---------------------------------------------------------------------------
# specs and case hashing
# ---------------------------------------------------------------------------

class TestSweepSpec:
    def test_expand_covers_grid_in_order(self):
        cases = tiny_sweep(n_seeds=2).expand()
        assert len(cases) == 8          # 1 machine x 2 wl x 2 sched x 2
        assert [c.describe() for c in cases[:4]] == [
            "tiny/thread/dirs4/s0", "tiny/thread/dirs4/s1",
            "tiny/coretime/dirs4/s0", "tiny/coretime/dirs4/s1"]

    def test_seed_is_pure_function_of_coordinates(self):
        cases = tiny_sweep(n_seeds=2).expand()
        by_name = {c.describe(): c for c in cases}
        assert by_name["tiny/thread/dirs4/s0"].seed \
            == derive_seed(42, "tiny", "thread", "dirs4", 0)
        # Filtering part of the grid must not move other cells' seeds.
        filtered = tiny_sweep(n_seeds=2,
                              filters=({"scheduler": "thread"},)).expand()
        for case in filtered:
            assert case.seed == by_name[case.describe()].seed

    def test_no_root_seed_single_seed_keeps_workload_seed(self):
        cases = tiny_sweep(n_seeds=1, root_seed=None).expand()
        assert all(case.seed is None for case in cases)

    def test_filters_exclude_matching_cases(self):
        spec = tiny_sweep(filters=({"scheduler": "coretime",
                                    "workload": "dirs8"},))
        names = [c.describe() for c in spec.expand()]
        assert "tiny/coretime/dirs8/s0" not in names
        assert "tiny/coretime/dirs4/s0" in names
        assert len(names) == 3

    def test_filter_with_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            tiny_sweep(filters=({"banana": "x"},)).validate()

    def test_validation_rejects_bad_grids(self):
        with pytest.raises(ConfigError):
            tiny_sweep(n_seeds=0).validate()
        spec = tiny_sweep()
        spec = SweepSpec(name="dup", machines=spec.machines,
                         schedulers=spec.schedulers,
                         workloads=(spec.workloads[0], spec.workloads[0]))
        with pytest.raises(ConfigError):
            spec.validate()

    def test_kind_spec_mismatch_rejected(self):
        spec = tiny_sweep()
        bad = SweepSpec(
            name="bad", machines=spec.machines,
            schedulers=spec.schedulers,
            workloads=(WorkloadAxis("w", "synthetic", tiny_workload()),))
        with pytest.raises(ConfigError):
            bad.validate()

    def test_spec_json_round_trip_preserves_cases(self):
        spec = tiny_sweep(n_seeds=2,
                          filters=({"scheduler": "thread"},))
        clone = SweepSpec.from_json(spec.to_json())
        assert clone.as_dict() == spec.as_dict()
        assert [c.key() for c in clone.expand()] \
            == [c.key() for c in spec.expand()]


class TestSweepCase:
    def test_key_is_stable_across_dict_round_trip(self):
        case = tiny_sweep().expand()[0]
        clone = SweepCase.from_dict(
            json.loads(json.dumps(case.as_dict())))
        assert clone == case
        assert clone.key() == case.key()

    def test_key_changes_with_any_field(self):
        case = tiny_sweep().expand()[0]
        keys = {case.key()}
        for changes in ({"scheduler": "work-stealing"},
                        {"seed_index": 3}, {"measure_cycles": 50_000},
                        {"workload": tiny_workload(5)}):
            keys.add(dataclasses.replace(case, **changes).key())
        assert len(keys) == 5

    def test_coretime_config_round_trips_and_keys_the_case(self):
        # An E8/E10-shaped case: CoreTime overrides over undeclared pairs.
        from repro.workloads.synthetic import ObjectOpsSpec
        case = SweepCase(
            machine_label="tiny", machine=tiny_spec(), scheduler="coretime",
            workload_kind="synthetic", workload_label="pairs",
            workload=ObjectOpsSpec(pair_probability=0.8,
                                   declare_pairs=False),
            scheduler_config={"return_home": False, "packing": "balanced"})
        assert case.scheduler_config == (("packing", "balanced"),
                                          ("return_home", False))
        hash(case)
        clone = SweepCase.from_dict(json.loads(json.dumps(case.as_dict())))
        assert clone == case and clone.key() == case.key()
        keys = {case.key()}
        for config in ({}, {"packing": "balanced"},
                       {"packing": "balanced", "return_home": True}):
            keys.add(dataclasses.replace(case,
                                         scheduler_config=config).key())
        assert len(keys) == 4

    def test_machine_spec_survives_round_trip(self):
        spec = MachineSpec.scaled(8)
        case = SweepCase(machine_label="m", machine=spec,
                         scheduler="thread", workload_kind="dirlookup",
                         workload_label="w", workload=tiny_workload())
        clone = SweepCase.from_dict(case.as_dict())
        assert clone.machine == spec


class TestCodeFingerprint:
    def test_short_hex_and_stable(self):
        first = code_fingerprint()
        assert len(first) == 16
        assert first == code_fingerprint()
        int(first, 16)

    def test_case_resolution_is_inside_the_fingerprint(self, tmp_path,
                                                      monkeypatch):
        # Resolving a case to a scheduler and a workload decides what a
        # cell measures, so editing it must invalidate cached cells;
        # editing the orchestration layer must not.
        import inspect
        import shutil
        from pathlib import Path

        import repro
        from repro.bench import harness
        root = Path(repro.__file__).resolve().parent
        copy = tmp_path / "repro"
        shutil.copytree(root, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))

        def edit(path):
            path.write_text(path.read_text() + "\n# edited\n")

        for function in (harness.execute_case, harness.scheduler_factory,
                         harness.workload_factory):
            source = Path(inspect.getsourcefile(function)).resolve()
            before = code_fingerprint()
            edit(copy / source.relative_to(root))
            assert code_fingerprint() != before, function.__name__
        before = code_fingerprint()
        edit(copy / "sweep" / "runner.py")
        assert code_fingerprint() == before


# ---------------------------------------------------------------------------
# result store
# ---------------------------------------------------------------------------

class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "sw")
        record = make_record("k1", {"a": 1}, "fp", "ok",
                             point={"kops_per_sec": 5.0})
        store.put(record)
        assert store.get("k1") == record
        assert store.get("k1", fingerprint="fp") == record

    def test_fingerprint_mismatch_reads_as_missing(self, tmp_path):
        store = ResultStore(tmp_path / "sw")
        store.put(make_record("k1", {}, "old-code", "ok", point={}))
        assert store.get("k1", fingerprint="new-code") is None

    def test_torn_record_reads_as_missing(self, tmp_path):
        store = ResultStore(tmp_path / "sw")
        store.put(make_record("k1", {}, "fp", "ok", point={}))
        path = store.cases_dir / "k1.json"
        path.write_text(path.read_text()[:10])      # simulate a kill
        assert store.get("k1") is None

    def test_journal_survives_torn_tail(self, tmp_path):
        store = ResultStore(tmp_path / "sw")
        store.journal("started", case="k1")
        store.journal("finished", case="k1")
        store.close()
        with open(store.journal_path, "a") as handle:
            handle.write('{"event": "trunc')
        entries = store.journal_entries()
        assert [e["event"] for e in entries] == ["started", "finished"]

    def test_journal_survives_corruption_mid_file(self, tmp_path):
        # A torn line in the *middle* of the journal (crash + disk
        # reuse, or a partial flush) must not swallow the valid entries
        # written after it.
        store = ResultStore(tmp_path / "sw")
        store.journal("started", case="k1")
        store.close()
        with open(store.journal_path, "a") as handle:
            handle.write('{"event": "trunc\n')
            handle.write("not json at all\n")
        store.journal("finished", case="k1")
        store.journal("started", case="k2")
        store.close()
        entries = store.journal_entries()
        assert [e["event"] for e in entries] \
            == ["started", "finished", "started"]
        assert entries[1]["case"] == "k1"

    def test_spec_round_trip_and_status(self, tmp_path):
        spec = tiny_sweep()
        store = ResultStore(tmp_path / "sw").create(spec)
        assert store.exists()
        assert store.load_spec().as_dict() == spec.as_dict()
        counts = store.status()
        assert counts == {"total": 4, "ok": 0, "failed": 0,
                          "stale": 0, "pending": 4}

    def test_bad_status_rejected(self):
        with pytest.raises(Exception):
            make_record("k", {}, "fp", "exploded")


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

class TestRunnerSerial:
    def test_full_grid_runs_and_aggregates(self, tmp_path):
        spec = tiny_sweep(n_seeds=2)
        store = ResultStore(tmp_path / "sw").create(spec)
        with store:
            outcome = run_sweep(spec, store, quick_options())
        assert outcome.computed == 8
        assert outcome.failed == 0 and outcome.remaining == 0
        cells = fold_records(outcome.records.values())
        assert len(cells) == 4          # seed axis folded
        assert all(cell.stats.n == 2 for cell in cells)
        comparisons = compare_schedulers(cells, "thread", "coretime")
        assert set(comparisons) == {("tiny", "dirs4"), ("tiny", "dirs8")}

    def test_resume_skips_cached_cells(self, tmp_path):
        spec = tiny_sweep()
        store = ResultStore(tmp_path / "sw").create(spec)
        with store:
            first = run_sweep(spec, store,
                              quick_options(stop_after=2))
            assert first.stopped and first.computed == 2
            second = run_sweep(spec, store, quick_options())
        assert second.cached == 2
        assert second.computed == 2
        assert not second.stopped and second.remaining == 0
        events = [e["event"] for e in store.journal_entries()]
        assert "interrupted" in events and "cached" in events

    def test_stale_fingerprint_forces_recompute(self, tmp_path):
        spec = tiny_sweep()
        store = ResultStore(tmp_path / "sw").create(spec)
        with store:
            run_sweep(spec, store, quick_options(),
                      fingerprint="old-code")
            again = run_sweep(spec, store, quick_options(),
                              fingerprint="new-code")
        assert again.cached == 0 and again.computed == 4

    def test_failed_case_recorded_with_flight_tail(self, tmp_path):
        # files_per_dir=0 fails validation inside the worker body.
        case = SweepCase(
            machine_label="tiny", machine=tiny_spec(),
            scheduler="thread", workload_kind="dirlookup",
            workload_label="bad",
            workload=tiny_workload(files_per_dir=0),
            warmup_cycles=1_000, measure_cycles=1_000)
        record = execute_case_record(case, "fp")
        assert record["status"] == "failed"
        assert "ConfigError" in record["error"]
        assert record["point"] is None

    def test_failure_mid_run_records_a_flight_tail(self, monkeypatch):
        # The case raises mid-run; the replay's ring tail is the evidence.
        from repro.errors import DeadlockError
        from repro.sched import registry
        from repro.sched.registry import SchedulerEntry
        from repro.sched.thread_sched import ThreadScheduler

        class CrashOnTenthOp(ThreadScheduler):
            ends = 0

            def on_ct_end(self, thread, core, now):
                self.ends += 1
                if self.ends == 10:
                    raise DeadlockError("injected mid-run")
                return super().on_ct_end(thread, core, now)

        registry.names()                 # populate the built-ins first
        monkeypatch.setitem(registry._REGISTRY, "crash-test",
                            SchedulerEntry("crash-test", CrashOnTenthOp))
        case = dataclasses.replace(tiny_sweep().expand()[0],
                                   scheduler="crash-test")
        record = execute_case_record(case, "fp")
        assert record["status"] == "failed"
        assert "DeadlockError: injected mid-run" in record["error"]
        tail = record["flight"]
        assert 0 < len(tail) <= FLIGHT_TAIL
        assert all("kind" in event for event in tail)

    def test_ok_case_runs_without_a_pipeline(self, monkeypatch):
        import repro.bench.harness as harness
        real = harness.execute_case
        seen = []

        def spy(case, obs=None):
            seen.append(obs)
            return real(case, obs=obs)

        monkeypatch.setattr(harness, "execute_case", spy)
        record = execute_case_record(tiny_sweep().expand()[0], "fp")
        assert record["status"] == "ok" and record["flight"] is None
        assert seen == [None]

    def test_bad_scheduler_config_fails_before_any_case_runs(self):
        good = tiny_sweep(schedulers=("thread",)).expand()[0]
        for changes in ({"scheduler": "coretime",
                         "scheduler_config": {"no_such_knob": 1}},
                        {"scheduler_config": {"packing": "balanced"}}):
            messages = []
            with pytest.raises(ConfigError):
                run_cases([good, dataclasses.replace(good, **changes)],
                          progress=messages.append)
            assert messages == []

    def test_recording_needs_the_in_process_path(self):
        with pytest.raises(ConfigError):
            run_cases(tiny_sweep().expand()[:1],
                      options=quick_options(workers=2),
                      recording=Observability())

    def test_failed_case_does_not_kill_the_sweep(self, tmp_path):
        spec = tiny_sweep(schedulers=("thread",))
        bad = WorkloadAxis("bad", "dirlookup",
                           tiny_workload(files_per_dir=0))
        spec.workloads = spec.workloads + (bad,)
        store = ResultStore(tmp_path / "sw").create(spec)
        with store:
            outcome = run_sweep(spec, store, quick_options())
        assert outcome.failed == 1
        assert outcome.computed == 3 and outcome.remaining == 0
        report = render_report("t", outcome.records.values(),
                               spec.schedulers)
        assert "failed cell(s)" in report

    def test_publishes_obs_events(self):
        spec = tiny_sweep(schedulers=("thread",), root_seed=None)
        obs = Observability()
        run_sweep(spec, options=quick_options(), obs=obs)
        kinds = [e.kind for e in obs.events()]
        assert kinds == ["sweep_start", "sweep_end"] * 2

    def test_unknown_scheduler_fails_that_case_only(self):
        spec = tiny_sweep(schedulers=("thread", "nope"))
        outcome = run_sweep(spec, options=quick_options())
        assert outcome.failed == 2       # both 'nope' cells
        assert outcome.computed == 4 and outcome.remaining == 0

    def test_options_validate(self):
        with pytest.raises(ConfigError):
            quick_options(workers=-1).validate()
        with pytest.raises(ConfigError):
            quick_options(timeout_s=0).validate()
        with pytest.raises(ConfigError):
            quick_options(retries=-2).validate()


class TestRunnerParallel:
    def test_parallel_records_byte_identical_to_serial(self, tmp_path):
        spec = tiny_sweep(n_seeds=2)
        serial_store = ResultStore(tmp_path / "serial").create(spec)
        pool_store = ResultStore(tmp_path / "pool").create(spec)
        with serial_store, pool_store:
            run_sweep(spec, serial_store, quick_options())
            outcome = run_sweep(spec, pool_store,
                                quick_options(workers=3))
        assert outcome.computed == 8 and outcome.failed == 0
        for case in spec.expand():
            name = f"{case.key()}.json"
            serial_bytes = (serial_store.cases_dir / name).read_bytes()
            pool_bytes = (pool_store.cases_dir / name).read_bytes()
            assert serial_bytes == pool_bytes, case.describe()

    def test_parallel_failed_case_does_not_kill_the_sweep(self):
        spec = tiny_sweep(schedulers=("thread", "nope"))
        outcome = run_sweep(spec, options=quick_options(workers=2))
        assert outcome.failed == 2
        assert outcome.computed == 4 and outcome.remaining == 0

    def test_timeout_terminates_and_records_failure(self, tmp_path):
        spec = tiny_sweep(schedulers=("thread",))
        # A measurement window this long cannot finish in 10ms.
        spec.warmup_cycles = 0
        spec.measure_cycles = 500_000_000
        store = ResultStore(tmp_path / "sw").create(spec)
        with store:
            outcome = run_sweep(
                spec, store,
                quick_options(workers=2, timeout_s=0.01, retries=1))
        assert outcome.failed == 2 and outcome.remaining == 0
        record = next(r for r in outcome.records.values()
                      if r is not None)
        assert "timeout" in record["error"]
        attempts = [e for e in store.journal_entries()
                    if e["event"] == "failed"]
        assert all(e["attempt"] == 2 for e in attempts)  # retried once

    def test_stop_after_leaves_pending_cases(self, tmp_path):
        spec = tiny_sweep(n_seeds=2)
        store = ResultStore(tmp_path / "sw").create(spec)
        with store:
            outcome = run_sweep(spec, store,
                                quick_options(workers=2, stop_after=3))
        assert outcome.stopped
        assert 0 < outcome.computed <= 4
        assert outcome.remaining >= 4


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

class TestAggregate:
    def test_percentile_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 1.0) == 40.0
        assert percentile(values, 0.5) == 25.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def _records(self, values_by_sched):
        records = []
        for sched, values in values_by_sched.items():
            for seed_index, value in enumerate(values):
                case = {"machine_label": "m", "scheduler": sched,
                        "workload_label": "w", "seed_index": seed_index,
                        "seed": seed_index, "x": 1.0}
                records.append(make_record(
                    f"{sched}-{seed_index}", case, "fp", "ok",
                    point={"kops_per_sec": value}))
        return records

    def test_fold_and_compare(self):
        records = self._records({"thread": [100.0, 110.0],
                                 "coretime": [150.0, 154.0]})
        cells = fold_records(records)
        assert {cell.scheduler for cell in cells} \
            == {"thread", "coretime"}
        result = compare_schedulers(cells, "thread", "coretime")[
            ("m", "w")]
        assert result.robust            # coretime won on every seed
        assert result.mean_speedup == pytest.approx(
            (150 / 100 + 154 / 110) / 2)

    def test_scheduler_configs_fold_to_separate_cells(self):
        records = self._records({"coretime": [150.0]})
        configured = dict(records[0]["case"],
                          scheduler_config={"packing": "hash"})
        records.append(make_record("coretime-hash", configured, "fp", "ok",
                                   point={"kops_per_sec": 120.0}))
        cells = fold_records(records)
        assert [(cell.scheduler, cell.seeds, cell.values)
                for cell in cells] == [("coretime", [0], [150.0]),
                                       ("coretime[packing=hash]", [0],
                                        [120.0])]
        # A plain comparison does not pick up the configured variant.
        records += self._records({"thread": [100.0]})
        assert compare_schedulers(fold_records(records), "thread",
                                  "coretime")[("m", "w")].mean_speedup \
            == pytest.approx(1.5)

    def test_records_to_events_deterministic_order(self):
        records = self._records({"thread": [100.0]})
        records.append(make_record(
            "aaa", {"machine_label": "m", "scheduler": "x",
                    "workload_label": "w", "seed_index": 0,
                    "seed": None}, "fp", "failed", error="boom"))
        events = records_to_events(records)
        assert events[0].case == "aaa"        # sorted by case key
        assert events[1].kind == "sweep_fail"
        assert records_to_events(list(reversed(records))) == events


# ---------------------------------------------------------------------------
# the CLI (run -> stop -> resume -> status -> report -> diff)
# ---------------------------------------------------------------------------

class TestCli:
    def test_full_lifecycle(self, tmp_path, capsys):
        out = str(tmp_path / "sw")
        code = sweep_main(["run", "smoke", "--out", out, "--workers", "0",
                           "--seeds", "1", "--stop-after", "2",
                           "--quiet"])
        assert code == 3                    # stopped early
        assert sweep_main(["status", out]) == 3
        capsys.readouterr()
        code = sweep_main(["resume", out, "--workers", "0", "--quiet"])
        assert code == 0
        assert "2 cached" in capsys.readouterr().out
        assert sweep_main(["status", out]) == 0
        report_path = tmp_path / "report.txt"
        events_path = tmp_path / "events.jsonl"
        assert sweep_main(["report", out, "-o", str(report_path),
                           "--events-out", str(events_path)]) == 0
        assert "sweep report: smoke" in report_path.read_text()
        assert sweep_main(["diff", out, out]) == 0
        captured = capsys.readouterr().out
        assert "+0.0%" in captured

    def test_events_export_parses_as_current_schema(self, tmp_path, capsys):
        from repro.obs.export import SCHEMA_VERSION
        from repro.obs.profile import iter_jsonl
        out = str(tmp_path / "sw")
        events_path = str(tmp_path / "events.jsonl")
        code = sweep_main(["run", "smoke", "--out", out, "--workers", "0",
                           "--seeds", "1", "--quiet",
                           "--events-out", events_path])
        assert code == 0
        with open(events_path, encoding="utf-8") as handle:
            meta = json.loads(handle.readline())
        assert meta["schema_version"] == SCHEMA_VERSION == 5
        kinds = {event.kind for event in iter_jsonl(events_path)}
        assert kinds == {"sweep_start", "sweep_end"}

    def test_run_refuses_mismatched_store(self, tmp_path, capsys):
        out = str(tmp_path / "sw")
        assert sweep_main(["run", "smoke", "--out", out, "--workers",
                           "0", "--seeds", "1", "--stop-after", "0",
                           "--quiet"]) == 3
        assert sweep_main(["run", "smoke", "--out", out, "--workers",
                           "0", "--seeds", "2", "--quiet"]) == 1
        assert "different sweep" in capsys.readouterr().err

    def test_unknown_store_directory_errors(self, tmp_path):
        assert sweep_main(["status", str(tmp_path / "nope")]) == 1


# ---------------------------------------------------------------------------
# the tournament preset and the ranked report
# ---------------------------------------------------------------------------

class TestTournamentPreset:
    def test_covers_the_whole_registry(self):
        from repro.sched import registry
        from repro.sweep.presets import PRESETS
        spec = PRESETS["tournament"]()
        assert set(spec.schedulers) == set(registry.names())
        assert len(spec.schedulers) >= 8
        # Baselines lead so render_report's pairwise tables use them.
        assert spec.schedulers[:2] == ("thread", "coretime")

    def test_grid_expansion(self):
        from repro.sweep.presets import PRESETS
        spec = PRESETS["tournament"]()
        cases = spec.expand()
        assert len(cases) == (len(spec.schedulers)
                              * len(spec.workloads) * spec.n_seeds)


class TestRenderRank:
    def _records(self, values_by_sched, workload="w"):
        records = []
        for sched, values in values_by_sched.items():
            for seed_index, value in enumerate(values):
                case = {"machine_label": "m", "scheduler": sched,
                        "workload_label": workload,
                        "seed_index": seed_index, "seed": seed_index,
                        "x": 1.0}
                records.append(make_record(
                    f"{sched}-{workload}-{seed_index}", case, "fp", "ok",
                    point={"kops_per_sec": value}))
        return records

    def test_rows_ranked_by_speedup_with_pivot_inline(self):
        from repro.sweep.aggregate import fold_records, render_rank
        records = self._records({"base": [100.0, 100.0],
                                 "fast": [200.0, 220.0],
                                 "slow": [50.0, 52.0]})
        text = render_rank(fold_records(records), "base")
        lines = [line for line in text.splitlines() if line.strip()]
        order = [line.split()[1] for line in lines
                 if line.strip()[0].isdigit()]
        assert order == ["fast", "base", "slow"]
        assert "2.10x*" in text          # robust mean speedup, starred
        assert "speedup vs base" in text

    def test_inconsistent_seeds_lose_the_star(self):
        from repro.sweep.aggregate import fold_records, render_rank
        records = self._records({"base": [100.0, 100.0],
                                 "mixed": [150.0, 50.0]})
        text = render_rank(fold_records(records), "base")
        assert "1.00x*" not in text
        assert "*" not in [cell for line in text.splitlines()
                           for cell in line.split()
                           if cell.startswith("1.00x")]

    def test_missing_pivot_reports_cleanly(self):
        from repro.sweep.aggregate import fold_records, render_rank
        records = self._records({"fast": [200.0]})
        text = render_rank(fold_records(records), "base")
        assert "no completed cells for pivot" in text

    def test_missing_candidate_coord_renders_dash(self):
        from repro.sweep.aggregate import fold_records, render_rank
        records = (self._records({"base": [100.0], "fast": [200.0]},
                                 workload="w1")
                   + self._records({"base": [100.0]}, workload="w2"))
        text = render_rank(fold_records(records), "base")
        fast_line = next(line for line in text.splitlines()
                         if " fast " in f" {line} ")
        assert "-" in fast_line.split()

    def test_cli_rank_report_over_tournament(self, tmp_path, capsys):
        from repro.sched import registry
        out = str(tmp_path / "sw")
        assert sweep_main(["run", "--preset", "tournament", "--out", out,
                           "--workers", "0", "--seeds", "1",
                           "--quiet"]) == 0
        rank_path = tmp_path / "rank.txt"
        assert sweep_main(["report", out, "--rank",
                           "-o", str(rank_path)]) == 0
        text = rank_path.read_text()
        assert "tournament rank: tournament (pivot: coretime)" in text
        for name in registry.names():
            assert name in text
        assert sweep_main(["report", out, "--rank", "--pivot", "thread",
                           "-o", str(rank_path)]) == 0
        assert "(pivot: thread)" in rank_path.read_text()

    def test_preset_argument_forms(self, tmp_path, capsys):
        out = str(tmp_path / "sw")
        # No preset at all is a usage error listing the choices.
        assert sweep_main(["run", "--out", out, "--quiet"]) == 1
        assert "no preset given" in capsys.readouterr().err
        # Positional and option forms must agree when both are given.
        assert sweep_main(["run", "smoke", "--preset", "fig2",
                           "--out", out, "--quiet"]) == 1
        assert "conflicting presets" in capsys.readouterr().err
