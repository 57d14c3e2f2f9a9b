"""Tests for repro.workloads.trace (record/replay)."""

import pytest

from repro.cpu.machine import Machine
from repro.errors import ConfigError
from repro.sched import registry
from repro.sim.engine import Simulator
from repro.workloads.popularity import ZipfPopularity
from repro.workloads.trace import OperationTrace, TraceReplayWorkload

from tests.helpers import tiny_spec


class TestOperationTrace:
    def test_synthesise_shape(self):
        trace = OperationTrace.synthesise(4, 10, n_dirs=8,
                                          files_per_dir=16)
        assert len(trace.lanes) == 4
        assert all(len(lane) == 10 for lane in trace.lanes)
        assert trace.total_ops == 40

    def test_synthesise_deterministic(self):
        a = OperationTrace.synthesise(2, 5, 4, 8, seed=3)
        b = OperationTrace.synthesise(2, 5, 4, 8, seed=3)
        assert a.lanes == b.lanes

    def test_synthesise_respects_popularity(self):
        pop = ZipfPopularity(16, s=2.0, seed=0)
        trace = OperationTrace.synthesise(2, 200, 16, 8, popularity=pop)
        picked = [d for lane in trace.lanes for d, _ in lane]
        top = max(set(picked), key=picked.count)
        assert picked.count(top) > 200 * 2 / 16

    def test_roundtrip_through_text(self):
        trace = OperationTrace.synthesise(3, 7, 5, 9, seed=1)
        restored = OperationTrace.loads(trace.dumps())
        assert restored.lanes == trace.lanes
        assert restored.n_dirs == 5

    def test_load_rejects_garbage(self):
        with pytest.raises(ConfigError):
            OperationTrace.loads("not a trace\n")

    def test_validate_rejects_out_of_range_ops(self):
        trace = OperationTrace(2, 2, [[(5, 0)]])
        with pytest.raises(ConfigError):
            trace.validate()

    def test_empty_lane_roundtrip(self):
        trace = OperationTrace(2, 2, [[], [(0, 1)]])
        assert OperationTrace.loads(trace.dumps()).lanes == trace.lanes


class TestReplay:
    def _replay(self, scheduler_name, trace):
        machine = Machine(tiny_spec())
        sim = Simulator(machine, registry.resolve(scheduler_name)())
        workload = TraceReplayWorkload(machine, trace)
        workload.spawn_all(sim)
        sim.run(until=50_000_000)
        return sim, workload

    def test_replay_executes_every_op(self):
        trace = OperationTrace.synthesise(8, 20, 8, 32, seed=2)
        sim, workload = self._replay("thread", trace)
        assert all(thread.done for thread in sim.threads)
        assert sim.total_ops == trace.total_ops

    def test_same_work_under_both_schedulers(self):
        trace = OperationTrace.synthesise(8, 25, 16, 32, seed=4)
        sim_a, wl_a = self._replay("thread", trace)
        sim_b, wl_b = self._replay("coretime", trace)
        assert sim_a.total_ops == sim_b.total_ops == trace.total_ops
        # Both replays are complete, so completion time is well-defined.
        assert wl_a.completion_cycles(sim_a) > 0
        assert wl_b.completion_cycles(sim_b) > 0

    def test_unfinished_replay_rejected(self):
        trace = OperationTrace.synthesise(2, 50, 8, 32, seed=5)
        machine = Machine(tiny_spec())
        sim = Simulator(machine, registry.resolve("thread")())
        workload = TraceReplayWorkload(machine, trace)
        workload.spawn_all(sim)
        sim.run(until=100)   # nowhere near done
        with pytest.raises(ConfigError):
            workload.completion_cycles(sim)
