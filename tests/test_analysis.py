"""Tests for repro.analysis (multi-seed statistics)."""

import pytest

from repro.analysis import summarise
from repro.sweep.aggregate import compare_schedulers, fold_records
from repro.sweep.store import make_record


class TestSummarise:
    def test_basic_stats(self):
        stats = summarise([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.stdev == pytest.approx(1.0)
        assert stats.n == 3

    def test_single_sample(self):
        stats = summarise([5.0])
        assert stats.mean == 5.0
        assert stats.stdev == 0.0
        assert stats.stderr == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarise([])

    def test_ci_contains_mean(self):
        stats = summarise([10.0, 12.0, 14.0, 16.0])
        low, high = stats.ci95()
        assert low < stats.mean < high

    def test_str(self):
        assert "n=2" in str(summarise([1.0, 2.0]))


def _compare(baseline, candidate, seeds):
    """Seed-paired comparison of two measure(seed) functions, through
    the sweep aggregation that reports use."""
    records = []
    for name, measure in (("base", baseline), ("cand", candidate)):
        for index, seed in enumerate(seeds):
            case = {"machine_label": "m", "scheduler": name,
                    "workload_label": "w", "seed_index": index,
                    "seed": seed, "x": None}
            records.append(make_record(
                f"{name}-{index}", case, "fp", "ok",
                point={"kops_per_sec": measure(seed)}))
    return compare_schedulers(fold_records(records), "base",
                              "cand")[("m", "w")]


class TestCompare:
    def test_robust_speedup(self):
        result = _compare(lambda seed: 100.0 + seed,
                          lambda seed: 200.0 + seed, [1, 2, 3])
        assert result.robust
        assert result.mean_speedup == pytest.approx(2.0, rel=0.05)

    def test_mixed_result_not_robust(self):
        outcomes = {1: 0.5, 2: 2.0}
        result = _compare(lambda seed: 1.0,
                          lambda seed: outcomes[seed], [1, 2])
        assert not result.robust

    def test_zero_baseline_is_infinite(self):
        result = _compare(lambda seed: 0.0, lambda seed: 1.0, [1])
        assert result.per_seed_ratios[0] == float("inf")

    def test_str(self):
        result = _compare(lambda s: 1.0, lambda s: 2.0, [1])
        assert "2.00x" in str(result)


class TestIntegrationWithSimulator:
    def test_coretime_speedup_is_seed_robust(self):
        """The paper's headline holds across workload seeds, not just
        on one lucky draw."""
        from repro.cpu.topology import MachineSpec
        from repro.sweep.runner import run_cases
        from repro.sweep.spec import SweepCase
        from repro.workloads.dirlookup import DirWorkloadSpec

        spec = MachineSpec.scaled(16)
        workload = DirWorkloadSpec(
            n_dirs=128, files_per_dir=64, cluster_bytes=512,
            think_cycles=10, threads_per_core=4)
        cases = [SweepCase(
            machine_label="scaled16", machine=spec, scheduler=scheduler,
            workload_kind="dirlookup", workload_label="dirs128",
            workload=workload, seed_index=index, seed=seed,
            warmup_cycles=300_000, measure_cycles=400_000)
            for scheduler in ("thread", "coretime")
            for index, seed in enumerate([1, 2, 3])]
        outcome = run_cases(cases)
        cells = fold_records(outcome.records.values())
        result = compare_schedulers(cells, "thread", "coretime")[
            ("scaled16", "dirs128")]
        assert result.per_seed_ratios and len(result.per_seed_ratios) == 3
        assert result.robust, str(result)
        assert result.mean_speedup > 1.3
