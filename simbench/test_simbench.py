"""Tests of the benchmark's own code: ``python3 -m pytest simbench``.

Simulated runs here use a short horizon so the file runs in seconds;
the pinned digests in ``digests.json`` are for the full horizon.
"""

import json
from pathlib import Path

import pytest

import hostspeed
import run
from spans import SpanRecorder

SHORT = 60_000


def ticking_clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 100) holds a [10, 15) and b [20, 60); b holds c [30, 50).
    recorder = SpanRecorder(clock=ticking_clock(0, 10, 15, 20, 30, 50, 60,
                                                100))
    a = recorder.wrap("a", lambda: None)
    with recorder.span("outer"):
        a()
        with recorder.span("b"):
            recorder.wrap("c", lambda: None)()
    layers = recorder.summary()
    assert {name: (layer.calls, layer.total_ns, layer.self_ns)
            for name, layer in layers.items()} == {
        "outer": (1, 100, 55), "a": (1, 5, 5), "b": (1, 40, 20),
        "c": (1, 20, 20)}
    assert list(recorder.parent) == [-1, 0, 0, 2]


def test_wrapped_call_that_raises_still_closes_its_span():
    recorder = SpanRecorder(clock=ticking_clock(0, 4, 9, 10))

    def boom():
        raise KeyError("x")

    with recorder.span("outer"):
        with pytest.raises(KeyError):
            recorder.wrap("boom", boom)()
    layers = recorder.summary()
    assert layers["boom"].total_ns == 5
    assert layers["outer"].self_ns == 5


def test_span_dump_has_header_and_columns(tmp_path):
    recorder = SpanRecorder(clock=ticking_clock(0, 1, 2, 3))
    with recorder.span("x"):
        recorder.wrap("y", lambda: None)()
    path = recorder.write(str(tmp_path / "spans"))
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        body = handle.read()
    assert header["names"] == ["x", "y"] and header["count"] == 2
    assert len(body) == 2 * (4 + 4 + 8 + 8)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_and_untraced_runs_agree(name):
    workload = run.WORKLOADS[name]
    plain = run.run_once(workload, 3, horizon=SHORT)
    traced = run.run_once(workload, 3, traced=True, horizon=SHORT)
    assert plain.digest == traced.digest
    assert traced.problems == []
    assert len(traced.spans) > 0


def test_same_seed_repeats_and_other_seed_differs():
    workload = run.WORKLOADS["pipeline_coretime"]
    first = run.run_once(workload, 5, horizon=SHORT)
    again = run.run_once(workload, 5, horizon=SHORT)
    other = run.run_once(workload, 6, horizon=SHORT)
    assert first.exact == again.exact
    assert first.digest == again.digest
    assert other.digest != first.digest


def test_observability_leaves_simulated_results_unchanged():
    plain = run.run_once(run.WORKLOADS["dirlookup_coretime"], 2,
                         horizon=SHORT)
    observed = run.run_once(run.WORKLOADS["observed_coretime"], 2,
                            horizon=SHORT)
    assert observed.exact["events"] > 0
    assert {key: observed.exact[key] for key in plain.exact} == plain.exact


def test_mismatched_digest_is_a_failed_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "HORIZON", SHORT)
    monkeypatch.setattr(run, "pinned_digest", lambda workload, seed: "0" * 64)
    m = run.measure(run.WORKLOADS["pipeline_coretime"], 0, seconds=0,
                    trace=False)
    assert m.attempted == run.MIN_RUNS and m.failed == m.attempted
    assert run.result_object(m, {}, {})["correct"] is False
    assert "digest" in capsys.readouterr().err


def test_exception_is_a_failed_run(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken build")

    monkeypatch.setattr(run, "build", broken)
    m = run.measure(run.WORKLOADS["pipeline_coretime"], 0, seconds=0,
                    trace=True)
    assert m.attempted == 2 and m.failed == 2
    assert m.untraced == [] and m.traced == []
    assert run.result_object(m, {}, {})["correct"] is False


def test_unchanged_code_passes_with_pinned_digest(monkeypatch):
    monkeypatch.setattr(run, "HORIZON", SHORT)
    workload = run.WORKLOADS["pipeline_coretime"]
    pinned = run.run_once(workload, 1).digest
    monkeypatch.setattr(run, "pinned_digest", lambda workload, seed: pinned)
    m = run.measure(workload, 1, seconds=0, trace=True)
    assert (m.attempted, m.failed) == (2, 0)
    metrics = run.per_layer_metrics(m)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["sim.steps"] == m.traced[0].exact["steps"]


def test_each_lap_is_scaled_by_the_loops_around_it(monkeypatch):
    # The host runs at nominal speed, then 2x slow, then 4x slow.
    loops = iter(factor * hostspeed.REFERENCE_S for factor in (1, 1, 2, 4))
    monkeypatch.setattr(hostspeed, "reference_seconds", lambda: next(loops))
    clock = hostspeed.ScaledClock(clock=ticking_clock(0, 10, 11, 31, 32,
                                                      62, 63))
    assert clock.lap() == 10
    assert clock.lap() == pytest.approx(20 / 1.5)
    assert clock.lap() == pytest.approx(30 / 3)
    assert clock.total == pytest.approx(10 + 20 / 1.5 + 10)


def test_sliced_run_equals_one_call_where_idle_time_is_not_read():
    # Slices change CoreTime's monitor input (idle time is charged at
    # the end of each call), not the thread scheduler's results.
    workload = run.WORKLOADS["dirlookup_thread"]
    sim, _ = run.build(workload, 4)
    whole = sim.run(until=2 * workload.slice_cycles)
    sliced = run.run_once(workload, 4, horizon=2 * workload.slice_cycles)
    assert sliced.exact["counters"] == whole.counters
    assert sliced.exact["steps"] == whole.steps


def test_compare_reports_exact_count_diffs(tmp_path, capsys):
    def save(name, steps, run_s):
        path = tmp_path / name
        metrics = {"sim.steps": {"value": steps, "unit": "count"},
                   "sim.run_s": {"value": run_s, "unit": "s"}}
        path.write_text("table line\n" + json.dumps({"metrics": metrics}))
        return str(path)

    same = run.compare(save("a", 10, 1.0), save("b", 10, 2.0))
    assert same == 0
    differ = run.compare(save("c", 10, 1.0), save("d", 11, 1.0))
    assert differ == 1
    assert "sim.steps: 10 != 11" in capsys.readouterr().out


def test_benchmark_json_matches_metric_tables():
    spec = json.loads(
        (Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == {
        name: (unit, better)
        for name, (unit, better, _) in run.PER_LAYER.items()}
