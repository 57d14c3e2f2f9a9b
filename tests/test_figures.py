"""Smoke tests for the experiment definitions (tiny profiles).

The real shape assertions live in benchmarks/; these verify every
experiment runs end to end, returns well-formed results, and that the
CLI plumbing works.
"""

import json

import pytest

from repro.bench.figures import (EXPERIMENTS, PROFILES, FigureResult,
                                 Profile, _profile, figure_2, figure_4a)
from repro.errors import ConfigError

TINY = Profile((8, 24), warmup_cycles=100_000, measure_cycles=150_000)


class TestProfiles:
    def test_lookup_by_name(self):
        assert _profile("quick") is PROFILES["quick"]
        assert _profile(TINY) is TINY

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            _profile("leisurely")

    def test_full_covers_paper_range(self):
        full = PROFILES["full"]
        # 640 scaled dirs = the paper's 20 MB right edge.
        assert max(full.n_dirs_list) == 640
        assert min(full.n_dirs_list) <= 4


class TestFigure4a:
    def test_tiny_run_shape(self):
        result = figure_4a(profile=TINY, scale=16)
        assert isinstance(result, FigureResult)
        assert [s.label for s in result.series] == ["thread", "coretime"]
        assert all(len(s.points) == 2 for s in result.series)
        assert "Figure 4(a)" in result.report
        assert result.series_by_label("thread").points[0].kops_per_sec > 0

    def test_unknown_series_label(self):
        result = figure_4a(profile=TINY, scale=16)
        with pytest.raises(KeyError):
            result.series_by_label("nonexistent")


class TestFigure2:
    def test_tiny_run(self):
        result = figure_2(n_dirs=8, run_cycles=400_000)
        assert "thread scheduler" in result.details
        assert "O2 scheduler (CoreTime)" in result.details
        assert "directories resident on-chip" in result.report


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {"fig4a", "fig4b", "fig2", "packing", "migration",
                    "clustering", "future", "replication", "replacement",
                    "objclustering", "packingpolicy"}
        assert set(EXPERIMENTS) == expected

    def test_cli_main_runs_one_experiment(self, tmp_path, monkeypatch,
                                          capsys):
        import repro.bench.report as report_module
        from repro.bench.__main__ import main

        monkeypatch.setattr(report_module, "RESULTS_DIR", str(tmp_path))
        # packing is the fastest experiment; run it through the CLI.
        exit_code = main(["packing", "--quiet"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "packing" in out
        assert (tmp_path / "packing_complexity.txt").exists()

    def test_derived_output_paths_keep_gz_outermost(self):
        from repro.bench.__main__ import _derived_path

        assert _derived_path("out.json", "fig2", many=True) \
            == "out.fig2.json"
        assert _derived_path("run.events.jsonl", "fig2", many=True) \
            == "run.events.fig2.jsonl"
        assert _derived_path("run.events.jsonl.gz", "fig2", many=True) \
            == "run.events.fig2.jsonl.gz"
        assert _derived_path("out", "fig2", many=True) == "out.fig2"
        assert _derived_path("res.d/out", "fig2", many=True) \
            == "res.d/out.fig2"
        assert _derived_path("run.events.jsonl.gz", "fig2", many=False) \
            == "run.events.jsonl.gz"

    def test_recording_holds_every_published_event(self, tmp_path,
                                                   monkeypatch, capsys):
        # --events-out is written as events are published: it holds
        # each event the bus delivered, kind by kind, as a second
        # subscriber counts them, and the --profile-out report is
        # repro-analyze's report of it.
        from collections import Counter

        import repro.bench.__main__ as bench_main
        import repro.bench.report as report_module
        from repro.obs import CONTROL_EVENTS, Observability
        from repro.obs.cli import main as analyze_main

        monkeypatch.setattr(report_module, "RESULTS_DIR", str(tmp_path))
        published = Counter()

        def counted(**kwargs):
            obs = Observability(**kwargs)
            obs.bus.subscribe(lambda event: published.update((event.kind,)),
                              *CONTROL_EVENTS)
            return obs

        monkeypatch.setattr(bench_main, "Observability", counted)
        path = tmp_path / "fig2.events.jsonl"
        assert bench_main.main(["fig2", "--quiet", "--events-out",
                                str(path), "--profile-out", "p"]) == 0
        assert capsys.readouterr().err == ""
        lines = path.read_text().splitlines()
        recorded = Counter(json.loads(line)["kind"] for line in lines[1:])
        assert recorded == published and published["run"] == 2
        assert analyze_main(["report", str(path)]) == 0
        assert capsys.readouterr().out == (tmp_path / "p.txt").read_text()

    @pytest.mark.parametrize("flag", ["--trace-out", "--profile-out"])
    def test_outputs_without_events_out_leave_no_scratch_file(
            self, flag, tmp_path, monkeypatch):
        import tempfile

        import repro.bench.report as report_module
        from repro.bench.__main__ import main

        monkeypatch.setattr(report_module, "RESULTS_DIR", str(tmp_path))
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        out = (str(tmp_path / "fig2.trace.json") if flag == "--trace-out"
               else "fig2-profile")
        assert main(["fig2", "--quiet", flag, out]) == 0
        assert list(scratch.iterdir()) == []
        if flag == "--trace-out":
            document = json.loads((tmp_path / "fig2.trace.json").read_text())
            assert document["otherData"]["runs"] == ["thread", "coretime"]
        else:
            assert "=== run: coretime" in \
                (tmp_path / "fig2-profile.txt").read_text()

    def test_unsupported_experiment_leaves_no_recording(self, tmp_path,
                                                        monkeypatch, capsys):
        import repro.bench.report as report_module
        from repro.bench.__main__ import main

        monkeypatch.setattr(report_module, "RESULTS_DIR", str(tmp_path))
        path = tmp_path / "packing.events.jsonl"
        assert main(["packing", "--quiet", "--events-out", str(path)]) == 0
        assert "not supported, ignored" in capsys.readouterr().out
        assert not path.exists()

    def test_outputs_refuse_worker_processes(self, tmp_path, capsys):
        # A recording attaches to in-process simulators only.
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as info:
            main(["fig4a", "--workers", "2",
                  "--metrics-out", str(tmp_path / "m.json")])
        assert info.value.code == 2
        assert "need --workers 0" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_perf_is_not_an_experiment(self, capsys):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as info:
            main(["perf"])
        assert info.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err
