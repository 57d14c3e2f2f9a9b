"""Tests for repro.bench (harness, reports, plots) on tiny configs."""

import dataclasses

import pytest

from repro.bench.ascii_plot import plot
from repro.bench.harness import (BenchPoint, Series, grid, run_point,
                                 run_series)
from repro.bench.report import figure_report, table
from repro.errors import ConfigError, ReproError
from repro.sched import registry
from repro.sched.registry import coretime_factory
from repro.sim.rng import derive_seed
from repro.workloads.dirlookup import DirWorkloadSpec
from repro.workloads.synthetic import ObjectOpsSpec

from tests.helpers import tiny_spec


def quick_workload(n_dirs=4):
    return DirWorkloadSpec(n_dirs=n_dirs, files_per_dir=32,
                           cluster_bytes=512, threads_per_core=2,
                           think_cycles=10)


class TestRunPoint:
    def test_measures_throughput(self):
        point = run_point(tiny_spec(), registry.resolve("thread"),
                          quick_workload(), warmup_cycles=50_000,
                          measure_cycles=100_000)
        assert point.scheduler == "thread"
        assert point.kops_per_sec > 0
        assert point.ops > 0

    def test_window_excludes_warmup(self):
        short = run_point(tiny_spec(), registry.resolve("thread"),
                          quick_workload(), warmup_cycles=0,
                          measure_cycles=50_000)
        long = run_point(tiny_spec(), registry.resolve("thread"),
                         quick_workload(), warmup_cycles=200_000,
                         measure_cycles=50_000)
        # Warm caches: the measured window is at least as fast.
        assert long.kops_per_sec >= short.kops_per_sec * 0.9

    def test_x_defaults_to_total_kb(self):
        workload = quick_workload()
        point = run_point(tiny_spec(), registry.resolve("thread"),
                          workload, warmup_cycles=0, measure_cycles=20_000)
        assert point.x == workload.total_data_bytes / 1024

    def test_invalid_windows_rejected(self):
        with pytest.raises(ConfigError):
            run_point(tiny_spec(), registry.resolve("thread"),
                      quick_workload(), warmup_cycles=-1, measure_cycles=10)
        with pytest.raises(ConfigError):
            run_point(tiny_spec(), registry.resolve("thread"),
                      quick_workload(), warmup_cycles=0, measure_cycles=0)

    def test_coretime_factory_overrides(self):
        factory = coretime_factory(rebalance=False, lookup_cost=5)
        scheduler = factory()
        assert scheduler.config.rebalance is False
        assert scheduler.config.lookup_cost == 5


def tiny_grid(schedulers=("thread", "coretime"), n_dirs=(2, 4), seed=None,
              warmup_cycles=20_000, measure_cycles=50_000):
    return grid(dict.fromkeys(schedulers), tiny_spec(),
                [quick_workload(n) for n in n_dirs], warmup_cycles,
                measure_cycles, xs=[float(n) for n in n_dirs], seed=seed)


class TestSweep:
    def test_one_series_per_scheduler(self):
        series = run_series(tiny_grid())
        assert [s.label for s in series] == ["thread", "coretime"]
        assert all(len(s.points) == 2 for s in series)
        assert series[0].xs == [2.0, 4.0]

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigError):
            tiny_grid(schedulers=("nope",))

    def test_failed_point_raises_naming_the_case(self):
        # files_per_dir=0 fails validation when the case runs.
        [(_, cases)] = tiny_grid(schedulers=("thread",), n_dirs=(2,))
        cases[0] = dataclasses.replace(
            cases[0],
            workload=dataclasses.replace(quick_workload(2), files_per_dir=0))
        with pytest.raises(ReproError) as excinfo:
            run_series([("thread", cases)])
        assert "thread point tiny/thread/w0/s0 failed" in str(excinfo.value)

    def test_parallel_matches_serial(self):
        # An E8/E10-shaped grid: two CoreTime configs over declared and
        # undeclared pairs of the object-ops workload, plus a plain
        # registry scheduler; every point equal at workers=0 and 2.
        pairs = ObjectOpsSpec(n_objects=8, object_bytes=1024,
                              pair_probability=0.8, think_cycles=10)
        schedulers = {
            "thread": None,
            "coretime": {"packing": "balanced", "return_home": False},
            "coretime+autocluster": {"packing": "balanced",
                                     "return_home": False,
                                     "auto_cluster": True,
                                     "auto_cluster_threshold": 4},
        }
        lines = grid(schedulers, tiny_spec(),
                     [pairs, pairs.replace(declare_pairs=False)],
                     10_000, 30_000, kind="synthetic", xs=[1, 2], seed=3)
        serial = run_series(lines)
        parallel = run_series(lines, workers=2)
        assert [s.label for s in serial] == list(schedulers)
        assert [s.label for s in parallel] == list(schedulers)
        for left, right in zip(serial, parallel):
            assert left.points == right.points
        # The two configs really are two experiments.
        assert serial[1].points != serial[2].points

    def test_seed_fans_out_per_point(self):
        # A root seed derives an independent seed per (curve, point);
        # same root, same coordinates -> identical results.
        first = tiny_grid(schedulers=("thread",), seed=5,
                          warmup_cycles=10_000, measure_cycles=30_000)
        assert [case.seed for case in first[0][1]] \
            == [derive_seed(5, "thread", 0), derive_seed(5, "thread", 1)]
        second = tiny_grid(schedulers=("thread",), seed=5,
                           warmup_cycles=10_000, measure_cycles=30_000)
        assert run_series(first)[0].points == run_series(second)[0].points

    def test_series_accessors(self):
        series = Series("s", [
            BenchPoint("s", 1.0, 10.0, 5, 0, 0, 0),
            BenchPoint("s", 2.0, 20.0, 9, 0, 0, 0),
        ])
        assert series.xs == [1.0, 2.0]
        assert series.ys == [10.0, 20.0]


class TestReports:
    def _series(self):
        return [
            Series("thread", [BenchPoint("thread", 64, 100.0, 1, 0, 0, 0),
                              BenchPoint("thread", 128, 80.0, 1, 0, 0, 0)]),
            Series("coretime", [BenchPoint("coretime", 64, 150.0, 1, 0, 0, 0),
                                BenchPoint("coretime", 128, 200.0, 1, 0, 0, 0)]),
        ]

    def test_table_includes_ratio_column(self):
        text = table(self._series(), x_header="KB")
        assert "coretime/thread" in text
        assert "2.50x" in text          # 200 / 80

    def test_plot_renders_markers_and_legend(self):
        text = plot([1, 2, 3], [[1, 2, 3], [3, 2, 1]], ["a", "b"],
                    title="T", x_label="x", y_label="y")
        assert "T" in text
        assert "o a" in text and "+ b" in text

    def test_plot_empty(self):
        assert plot([], [], []) == "(no data)"

    def test_figure_report_combines_parts(self):
        text = figure_report("My figure", self._series(), "KB", "kops",
                             notes="shape holds")
        assert "My figure" in text
        assert "shape holds" in text
        assert "coretime" in text
