"""Tests for repro.obs (event bus, metrics, exporters, flight recorder)."""

import json
import time
from collections import Counter

import pytest

from repro.cpu.machine import Machine
from repro.errors import ConfigError, DeadlockError
from repro.obs import Observability
from repro.obs.bus import EventBus, EventLog
from repro.obs.events import (ALL_EVENTS, CONTROL_EVENTS, EVENT_KINDS,
                              MEMORY_EVENTS, Event, MigrationStarted,
                              OperationFinished, RunMarker, ThreadFinished,
                              ThreadSpawned)
from repro.obs.export import (SCHEMA_VERSION, ascii_timeline, chrome_trace,
                              events_to_jsonl)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (Histogram, MetricsRegistry)
from repro.sched.base import SchedulerRuntime
from repro.sched.thread_sched import ThreadScheduler
from repro.sim.engine import Simulator
from repro.threads.program import Compute, CtEnd, CtStart
from repro.workloads.dirlookup import DirectoryLookupWorkload, DirWorkloadSpec

from tests.helpers import timeline_by_lists, tiny_spec


class _Obj:
    """Minimal ct_start target (the engine only reads ``name``)."""

    def __init__(self, name):
        self.name = name


def annotated_program(n_ops=3, cycles=100, obj=None):
    obj = obj or _Obj("obj:test")
    def program():
        for _ in range(n_ops):
            yield CtStart(obj)
            yield Compute(cycles)
            yield CtEnd()
    return program()


def build_workload(obs=None):
    machine = Machine(tiny_spec())
    sim = Simulator(machine, ThreadScheduler(), obs=obs)
    spec = DirWorkloadSpec(n_dirs=8, files_per_dir=16, think_cycles=10,
                           threads_per_core=2)
    DirectoryLookupWorkload(machine, spec).spawn_all(sim)
    return sim


def run_workload(obs=None, until=150_000):
    return build_workload(obs).run(until=until)


# ---------------------------------------------------------------------------
# event bus
# ---------------------------------------------------------------------------

class TestEventBus:
    def test_subscribe_specific_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, ThreadSpawned)
        bus.publish(ThreadSpawned(10, 0, "t0"))
        bus.publish(OperationFinished(20, 0, "t0", "obj", 5))
        assert [type(e) for e in seen] == [ThreadSpawned]

    def test_subscribe_all(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish(ThreadSpawned(10, 0, "t0"))
        bus.publish(RunMarker(0, "x"))
        assert len(seen) == 2
        assert bus.wants(MigrationStarted)

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        handler = seen.append
        bus.subscribe(handler, ThreadSpawned)
        assert bus.wants(ThreadSpawned)
        bus.unsubscribe(handler)
        assert not bus.wants(ThreadSpawned)
        bus.publish(ThreadSpawned(10, 0, "t0"))
        assert seen == []

    def test_wants_is_exact_per_type(self):
        bus = EventBus()
        bus.subscribe(lambda e: None, ThreadSpawned)
        assert bus.wants(ThreadSpawned)
        assert not bus.wants(OperationFinished)

    def test_publish_counts(self):
        bus = EventBus()
        bus.subscribe(lambda e: None, ThreadSpawned)
        bus.publish(ThreadSpawned(1, 0, "a"))
        bus.publish(RunMarker(0, "unwanted"))
        assert bus.published == 1
        assert bus.dropped_unwanted == 1

    def test_event_log_bound(self):
        log = EventLog(max_events=3)
        for i in range(5):
            log.record(ThreadSpawned(i, 0, f"t{i}"))
        assert len(log.events) == 3
        assert log.dropped == 2


class TestEvents:
    def test_as_dict_round_trips_fields(self):
        event = MigrationStarted(100, 1, "t3", 2, 350)
        data = event.as_dict()
        assert data == {"kind": "migrate", "ts": 100, "core": 1,
                        "thread": "t3", "target": 2, "arrive_ts": 350}

    def test_equality(self):
        assert ThreadSpawned(1, 0, "a") == ThreadSpawned(1, 0, "a")
        assert ThreadSpawned(1, 0, "a") != ThreadSpawned(1, 0, "b")

    def test_kind_registry_covers_all_events(self):
        assert set(EVENT_KINDS.values()) == set(ALL_EVENTS)
        assert set(CONTROL_EVENTS) | set(MEMORY_EVENTS) == set(ALL_EVENTS)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        hist = Histogram("h", (10, 20, 40))
        for value in (10, 11, 20, 21, 40, 41):
            hist.observe(value)
        # counts: <=10, <=20, <=40, overflow
        assert hist.counts == [1, 2, 2, 1]
        assert hist.count == 6
        assert hist._min == 10 and hist._max == 41

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ConfigError):
            Histogram("bad", (10, 10, 20))
        with pytest.raises(ConfigError):
            Histogram("bad", ())

    def test_summary_percentiles(self):
        hist = Histogram("h", (10, 20, 40))
        for value in (5, 5, 15, 15, 15, 30):
            hist.observe(value)
        summary = hist.summary()
        assert summary.count == 6
        assert summary.mean == pytest.approx(85 / 6)
        assert summary.percentile(0.5) == 20
        assert summary.percentile(1.0) == 40
        assert summary.buckets[-1][0] == float("inf")
        data = summary.as_dict()
        assert data["count"] == 6 and "p95" in data

    def test_empty_summary(self):
        summary = Histogram("h", (10,)).summary()
        assert summary.count == 0
        assert summary.percentile(0.5) is None
        assert summary.mean == 0.0

    def test_empty_percentile_is_none_for_every_quantile(self):
        summary = Histogram("h", (10, 20)).summary()
        for p in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert summary.percentile(p) is None
        assert summary.min is None and summary.max is None
        data = summary.as_dict()
        assert data["p50"] is None and data["p95"] is None

    def test_single_bucket_percentiles(self):
        hist = Histogram("h", (100,))
        for value in (1, 50, 100):      # all inside the only bucket
            hist.observe(value)
        summary = hist.summary()
        for p in (0.25, 0.5, 0.95, 1.0):
            assert summary.percentile(p) == 100
        assert summary.percentile(0.0) == 100   # rank 0 -> first bucket

    def test_single_bucket_overflow_reports_observed_max(self):
        hist = Histogram("h", (100,))
        hist.observe(5000)              # lands in the overflow bucket
        summary = hist.summary()
        # The overflow bucket's bound is inf; the estimate must fall
        # back to the observed maximum, never return inf.
        assert summary.percentile(0.5) == 5000
        assert summary.percentile(1.0) == 5000

    def test_percentile_range_is_validated(self):
        summary = Histogram("h", (10,)).summary()
        with pytest.raises(ConfigError):
            summary.percentile(-0.1)
        with pytest.raises(ConfigError):
            summary.percentile(1.1)


class TestMetricsRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h", (1, 2)) is \
            registry.histogram("h", (1, 2))

    def test_histogram_bucket_conflict(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2))
        with pytest.raises(ConfigError):
            registry.histogram("h", (1, 2, 3))

    def test_cross_type_name_collision(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigError):
            registry.histogram("x", (1,))
        with pytest.raises(ConfigError):
            registry.gauge_fn("x", lambda: 0)

    def test_gauge_fn_pull(self):
        registry = MetricsRegistry()
        state = {"v": 1}
        registry.gauge_fn("pull", lambda: state["v"])
        state["v"] = 7
        assert registry.snapshot()["pull"] == 7

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge_fn("g", lambda: 1.5)
        registry.histogram("h", (10,)).observe(4)
        text = json.dumps(registry.snapshot())
        assert json.loads(text)["c"] == 3
        assert json.loads(text)["g"] == 1.5
        assert json.loads(text)["h"]["count"] == 1


# ---------------------------------------------------------------------------
# simulator integration
# ---------------------------------------------------------------------------

class TestSimulatorIntegration:
    def test_run_result_exposes_summaries(self):
        obs = Observability()
        result = run_workload(obs=obs)
        assert result.op_latency is not None
        assert result.op_latency.count > 0
        assert result.migration_latency is not None
        assert result.metrics["sim.ops"] == result.op_latency.count
        assert "sim.runqueue_depth" in result.metrics
        assert "mem.dram_lines" in result.metrics

    def test_without_obs_summaries_absent(self):
        result = run_workload()
        assert result.op_latency is None
        assert result.migration_latency is None
        assert result.metrics == {}

    def test_disabled_path_constructs_no_events(self, monkeypatch):
        def boom(self, *args, **kwargs):
            raise AssertionError("event constructed with obs disabled")
        # Concrete event __init__s are flattened (no super() chain), so
        # every class must be patched, not just the Event base.
        for klass in (Event,) + ALL_EVENTS:
            monkeypatch.setattr(klass, "__init__", boom)
        result = run_workload()          # no obs
        assert result.ops > 0

    def test_lifecycle_events_recorded(self):
        obs = Observability()
        run_workload(obs=obs)
        counts = Counter(type(e) for e in obs.events())
        assert counts[ThreadSpawned] > 0
        assert counts[ThreadFinished] >= 0
        migrates = [e for e in obs.events() if type(e) is MigrationStarted]
        if migrates:
            assert isinstance(migrates[0].target, int)

    def test_spawn_events_match_spawned_threads(self):
        obs = Observability()
        sim = build_workload(obs)
        sim.run(until=150_000)
        spawns = [e for e in obs.events() if type(e) is ThreadSpawned]
        assert len(spawns) == len(sim.threads)

    def test_run_markers_split_runs(self):
        obs = Observability()
        run_workload(obs=obs)
        run_workload(obs=obs)
        markers = [e for e in obs.events() if type(e) is RunMarker]
        assert len(markers) == 2
        assert obs.runs == ["thread", "thread"]

    def test_memory_events_opt_in(self):
        quiet = Observability()
        run_workload(obs=quiet)
        assert not any(type(e).__name__ == "CacheInvalidated"
                       for e in quiet.events())
        chatty = Observability(capture_memory=True)
        run_workload(obs=chatty)
        assert any(type(e).__name__ == "CacheInvalidated"
                   for e in chatty.events())

    def test_enabled_overhead_bounded(self):
        # Guard against pathological regressions; the strict <15% budget
        # is checked on the larger fig2 run where fixed costs amortise.
        def timed(obs_factory):
            best = float("inf")
            for _ in range(3):
                obs = obs_factory()
                start = time.perf_counter()
                run_workload(obs=obs, until=300_000)
                best = min(best, time.perf_counter() - start)
            return best
        disabled = timed(lambda: None)
        enabled = timed(Observability)
        assert enabled <= disabled * 1.5 + 0.05


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

class TestChromeTrace:
    def test_trace_is_valid_and_monotonic(self, tmp_path):
        obs = Observability()
        run_workload(obs=obs)
        path = tmp_path / "run.trace.json"
        obs.write_chrome_trace(str(path))
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events, "empty trace"
        for entry in events:
            assert entry["ph"] in ("M", "X", "i", "s", "f")
            assert "pid" in entry
            if entry["ph"] != "M":
                assert "ts" in entry
        # one named track per core, plus process names
        meta = [e for e in events if e["ph"] == "M"]
        track_names = {e["args"]["name"] for e in meta
                       if e["name"] == "thread_name"}
        n_cores = tiny_spec().n_cores
        assert {f"core {i}" for i in range(n_cores)} <= track_names
        # per-track slice timestamps never go backwards
        slices = {}
        for entry in events:
            if entry["ph"] == "X":
                slices.setdefault(
                    (entry["pid"], entry["tid"]), []).append(entry["ts"])
        assert slices
        for ts_list in slices.values():
            assert ts_list == sorted(ts_list)

    def test_migration_flow_pairs(self):
        class PingPong(ThreadScheduler):
            # Every annotated operation runs on the *other* core.
            def on_ct_start(self, thread, obj, core, now):
                return 1 - core.core_id

        obs = Observability()
        machine = Machine(tiny_spec(n_chips=1))
        sim = Simulator(machine, PingPong(), obs=obs)
        sim.spawn(annotated_program(n_ops=4), core_id=0)
        sim.run(until=200_000)
        events = chrome_trace(obs.events())["traceEvents"]
        starts = {e["id"] for e in events if e["ph"] == "s"}
        finishes = {e["id"] for e in events if e["ph"] == "f"}
        assert starts and starts == finishes
        # the flow lands on the migration's target track at arrive time
        for finish in (e for e in events if e["ph"] == "f"):
            assert finish["bp"] == "e"

    def test_two_runs_become_two_processes(self):
        obs = Observability()
        run_workload(obs=obs)
        run_workload(obs=obs)
        events = chrome_trace(obs.events())["traceEvents"]
        assert {e["pid"] for e in events} == {0, 1}

    def test_jsonl_round_trip(self):
        obs = Observability()
        run_workload(obs=obs)
        lines = events_to_jsonl(obs.events()).splitlines()
        # one meta header line + one line per event
        assert len(lines) == len(obs.events()) + 1
        meta = json.loads(lines[0])
        assert meta["kind"] == "meta"
        assert meta["schema_version"] == SCHEMA_VERSION
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "spawn" in kinds

    def test_ascii_timeline_smoke(self):
        obs = Observability()
        run_workload(obs=obs)
        art = ascii_timeline(obs.events(), width=40)
        assert "core   0" in art
        assert art == timeline_by_lists(obs.events(), width=40)
        assert ascii_timeline(obs.events(), n_cores=1, width=40) \
            == timeline_by_lists(obs.events(), n_cores=1, width=40)
        assert ascii_timeline([], width=40) == "(no operations recorded)"


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------

class _CrashOnOpScheduler(ThreadScheduler):
    """Injects a DeadlockError from inside the run loop."""

    def on_ct_end(self, thread, core, now):
        raise DeadlockError("injected for the flight-recorder test")


class TestFlightRecorder:
    def test_ring_keeps_newest(self):
        flight = FlightRecorder(capacity=2)
        for i in range(4):
            flight.record(ThreadSpawned(i, 0, f"t{i}"))
        assert flight.recorded == 4
        assert [e["ts"] for e in flight.tail(4)] == [2, 3]
        assert "t3" in flight.dump_text("why")

    def test_crash_dumps_flight_to_file(self, tmp_path):
        path = tmp_path / "postmortem.txt"
        obs = Observability(flight_path=str(path))
        machine = Machine(tiny_spec())
        sim = Simulator(machine, _CrashOnOpScheduler(), obs=obs)
        sim.spawn(annotated_program(), core_id=0)
        with pytest.raises(DeadlockError):
            sim.run(until=100_000)
        text = path.read_text()
        assert "DeadlockError" in text
        assert "injected" in text
        assert "spawn" in text              # pre-crash events preserved

    def test_no_flight_no_dump(self, tmp_path):
        path = tmp_path / "postmortem.txt"
        obs = Observability(flight=0, flight_path=str(path))
        machine = Machine(tiny_spec())
        sim = Simulator(machine, _CrashOnOpScheduler(), obs=obs)
        sim.spawn(annotated_program(), core_id=0)
        with pytest.raises(DeadlockError):
            sim.run(until=100_000)
        assert not path.exists()


# ---------------------------------------------------------------------------
# observability facade
# ---------------------------------------------------------------------------

class TestObservability:
    def test_events_disabled_still_runs(self):
        obs = Observability(events=False, metrics=False, flight=0)
        result = run_workload(obs=obs)
        assert result.ops > 0
        assert obs.events() == []
        assert obs.metrics_snapshot() == {}

    def test_scheduler_attr_set_before_bind(self):
        class Probe(SchedulerRuntime):
            name = "probe"
            bound_with_obs = None
            def _on_bind(self):
                Probe.bound_with_obs = self.obs
            def place_thread(self, thread):
                return 0
        obs = Observability()
        Simulator(Machine(tiny_spec()), Probe(), obs=obs)
        assert Probe.bound_with_obs is obs
