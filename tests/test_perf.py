"""Tests for the perf kernels and the benchmark-regression gate
(``python -m repro.bench perf``), plus the engine-determinism and
dispatch-table guarantees the hot-path optimization relies on.
"""

from __future__ import annotations

import pytest

from repro.bench.perf import (KERNELS, _percentile, _stats_dict, compare,
                              format_report)
from repro.cpu.machine import Machine
from repro.errors import SimulationError
from repro.obs import Observability
from repro.sched.thread_sched import ThreadScheduler
from repro.sim.engine import Simulator
from repro.threads.program import ITEM_TYPES, Compute
from repro.workloads.dirlookup import DirectoryLookupWorkload, DirWorkloadSpec

from tests.helpers import tiny_spec


# ---------------------------------------------------------------------------
# dispatch table
# ---------------------------------------------------------------------------

def _simulator(machine=None):
    machine = machine or Machine(tiny_spec())
    return Simulator(machine, ThreadScheduler())


def test_dispatch_table_covers_every_item_type():
    simulator = _simulator()
    assert set(simulator._dispatch) == set(ITEM_TYPES)


def test_dispatch_handlers_are_callable_and_distinct():
    simulator = _simulator()
    handlers = list(simulator._dispatch.values())
    assert all(callable(h) for h in handlers)
    # Every item class gets its own handler (no accidental aliasing
    # beyond the ct_start/ct_end pair wrapping shared logic).
    assert len({h.__name__ for h in handlers}) == len(handlers)


def test_unknown_item_raises_simulation_error():
    simulator = _simulator()

    def rogue():
        yield Compute(5)
        yield object()  # not an instruction item

    simulator.spawn(rogue(), "rogue", core_id=0)
    with pytest.raises(SimulationError, match="unknown item"):
        simulator.run(max_steps=10)


# ---------------------------------------------------------------------------
# determinism: same seed -> byte-identical event stream
# ---------------------------------------------------------------------------

def _run_events(tmp_path, tag):
    machine = Machine(tiny_spec())
    obs = Observability(events=True)
    simulator = Simulator(machine, ThreadScheduler(), obs=obs)
    spec = DirWorkloadSpec(n_dirs=6, files_per_dir=32, cluster_bytes=512,
                           think_cycles=10, threads_per_core=2, seed=7)
    DirectoryLookupWorkload(machine, spec).spawn_all(simulator)
    simulator.run(until=150_000)
    path = tmp_path / f"{tag}.events.jsonl"
    obs.write_jsonl(str(path))
    return path.read_bytes()


def test_same_seed_event_streams_byte_identical(tmp_path):
    assert _run_events(tmp_path, "a") == _run_events(tmp_path, "b")


# ---------------------------------------------------------------------------
# perf reporting + gate
# ---------------------------------------------------------------------------

def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert _percentile(values, 0.0) == 1.0
    assert _percentile(values, 1.0) == 4.0
    assert _percentile(values, 0.5) == 2.5
    assert _percentile([42.0], 0.95) == 42.0


def test_stats_dict_fields():
    stats = _stats_dict([1.0, 2.0, 3.0])
    assert stats["n"] == 3
    assert stats["min"] == 1.0 and stats["max"] == 3.0
    assert stats["p50"] == 2.0
    assert stats["mean"] == pytest.approx(2.0)


def _report(**norms):
    return {"kernels": {name: {"normalized_throughput": value}
                        for name, value in norms.items()}}


def test_gate_passes_within_tolerance():
    regressions, improvements = compare(
        _report(fig2=0.95), _report(fig2=1.0), tolerance=0.20)
    assert not regressions and not improvements


def test_gate_fails_on_regression():
    regressions, improvements = compare(
        _report(fig2=0.70), _report(fig2=1.0), tolerance=0.20)
    assert regressions and not improvements


def test_gate_warns_on_improvement():
    regressions, improvements = compare(
        _report(fig2=1.30), _report(fig2=1.0), tolerance=0.20)
    assert improvements and not regressions


def test_gate_flags_missing_kernel_as_regression():
    regressions, _ = compare(_report(), _report(fig2=1.0))
    assert regressions and "missing" in regressions[0]


def test_perf_kernel_registry_and_report_format():
    assert set(KERNELS) == {"fig2", "fig4a", "migration"}
    report = {
        "python": "3.11.0", "repeats": 2, "calibration_score": 1e6,
        "kernels": {"fig2": {
            "steps_per_sec": {"p50": 1000.0, "p95": 1100.0, "mean": 1050.0},
            "normalized_throughput": 0.001}},
    }
    text = format_report(report)
    assert "fig2" in text and "normalized 0.001" in text
