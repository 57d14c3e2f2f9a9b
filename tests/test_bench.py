"""Tests for repro.bench (harness, reports, plots) on tiny configs."""

import pytest

from repro.bench.ascii_plot import plot
from repro.bench.harness import BenchPoint, Series, run_point, sweep
from repro.bench.report import figure_report, table
from repro.errors import ConfigError
from repro.sched import registry
from repro.sched.registry import coretime_factory
from repro.workloads.dirlookup import DirWorkloadSpec

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


class TestSweep:
    def test_one_series_per_scheduler(self):
        series = sweep(tiny_spec(), ("thread", "coretime"),
                       [quick_workload(2), quick_workload(4)],
                       warmup_cycles=20_000, measure_cycles=50_000)
        assert [s.label for s in series] == ["thread", "coretime"]
        assert all(len(s.points) == 2 for s in series)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigError):
            sweep(tiny_spec(), ("nope",), [quick_workload()],
                  warmup_cycles=0, measure_cycles=10_000)

    def test_interrupt_flushes_partial_series(self, monkeypatch):
        # Interrupt mid-grid: the exception must carry every finished
        # point (completed series + the partial one) so hours of sweep
        # work survive a ^C.
        import repro.bench.harness as harness
        real_run_point = harness.run_point
        calls = []

        def flaky_run_point(*args, **kwargs):
            if len(calls) == 3:            # 4th point: mid-series 2
                raise KeyboardInterrupt
            calls.append(1)
            return real_run_point(*args, **kwargs)

        monkeypatch.setattr(harness, "run_point", flaky_run_point)
        with pytest.raises(KeyboardInterrupt) as exc_info:
            sweep(tiny_spec(), ("thread", "coretime"),
                  [quick_workload(2), quick_workload(4)],
                  warmup_cycles=10_000, measure_cycles=20_000)
        partial = exc_info.value.partial_series
        assert [s.label for s in partial] == ["thread",
                                              "coretime (partial)"]
        assert len(partial[0].points) == 2
        assert len(partial[1].points) == 1

    def test_parallel_interrupt_flushes_partial_series(self, monkeypatch):
        # The workers>0 path mirrors the serial ^C contract: finished
        # points ride along on the exception as partial_series.
        import repro.sweep.runner as runner

        real_run_cases = runner.run_cases

        def interrupted_run_cases(cases, **kwargs):
            # Compute the first case for real, then "get ^C'd" the way
            # the distributed runner reports it.
            outcome = real_run_cases(cases[:1])
            interrupt = KeyboardInterrupt()
            interrupt.partial_records = {
                case.key(): outcome.records.get(case.key())
                for case in cases}
            raise interrupt

        monkeypatch.setattr(runner, "run_cases", interrupted_run_cases)
        with pytest.raises(KeyboardInterrupt) as exc_info:
            sweep(tiny_spec(), ("thread", "coretime"),
                  [quick_workload(2), quick_workload(4)],
                  warmup_cycles=10_000, measure_cycles=20_000,
                  workers=2)
        partial = exc_info.value.partial_series
        assert [s.label for s in partial] == ["thread (partial)"]
        assert len(partial[0].points) == 1
        assert partial[0].points[0].kops_per_sec > 0

    def test_parallel_matches_serial(self):
        kwargs = dict(warmup_cycles=10_000, measure_cycles=30_000,
                      xs=[2.0, 4.0], seed=3)
        workloads = [quick_workload(2), quick_workload(4)]
        serial = sweep(tiny_spec(), ("thread", "coretime"), workloads,
                       **kwargs)
        parallel = sweep(tiny_spec(), ("thread", "coretime"), workloads,
                         workers=2, **kwargs)
        assert [s.label for s in serial] == [s.label for s in parallel]
        for left, right in zip(serial, parallel):
            assert left.points == right.points

    def test_parallel_rejects_unpicklable_configurations(self):
        with pytest.raises(ConfigError):
            sweep(tiny_spec(), ("thread",), [quick_workload()],
                  workers=2,
                  schedulers={"thread": registry.resolve("thread")})
        with pytest.raises(ConfigError):
            sweep(tiny_spec(), ("thread",), [quick_workload()],
                  workers=2, workload_factory=lambda m, s: None)
        with pytest.raises(ConfigError):
            sweep(tiny_spec(), ("thread",), [quick_workload()],
                  workers=2, obs=object())

    def test_seed_fans_out_per_point(self):
        # A root seed derives an independent seed per (scheduler, point);
        # same root, same coordinates -> identical results.
        first = sweep(tiny_spec(), ("thread",),
                      [quick_workload(2), quick_workload(4)],
                      warmup_cycles=10_000, measure_cycles=30_000, seed=5)
        second = sweep(tiny_spec(), ("thread",),
                       [quick_workload(2), quick_workload(4)],
                       warmup_cycles=10_000, measure_cycles=30_000,
                       seed=5)
        assert first[0].points == second[0].points

    def test_series_accessors(self):
        series = Series("s", [
            BenchPoint("s", 1.0, 10.0, 5, 0, 0, 0),
            BenchPoint("s", 2.0, 20.0, 9, 0, 0, 0),
        ])
        assert series.xs == [1.0, 2.0]
        assert series.ys == [10.0, 20.0]
        assert series.at(2.0).ops == 9
        with pytest.raises(KeyError):
            series.at(3.0)


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
