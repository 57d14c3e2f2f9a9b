"""Tests for repro.obs.profile and the repro-analyze CLI."""

import enum
import gzip
import json
import math
import random

import pytest

from repro.analysis import summarise
from repro.cpu.machine import Machine
from repro.errors import ProfileError
from repro.obs import Observability
from repro.obs.cli import main as analyze_main
from repro.obs.events import (ALL_EVENTS, EVENT_KINDS, CacheEvicted,
                              CacheInvalidated, Event, FaultInjected,
                              InvariantViolated, LockContended,
                              MigrationStarted, ObjectAssigned, ObjectMoved,
                              OperationFinished, OperationStarted,
                              RebalanceRound, RunMarker,
                              LeaseExpired, SchedDecision, SweepCaseFailed,
                              SweepCaseFinished, SweepCaseStarted,
                              ThreadArrived, ThreadFinished, ThreadSpawned,
                              WorkerJoined, WorkerLost)
from repro.obs.export import SCHEMA_VERSION, events_to_jsonl, write_jsonl
from repro.obs.profile import (EventDecoder, MetricDelta, diff_metrics,
                               folded_stacks, iter_jsonl, render_diff)
from repro.obs.stream import (Profile, RunProfile, StreamProfiler,
                              diff_sections, merge_profiles, synthesize)
from repro.sched.thread_sched import ThreadScheduler
from repro.sim.engine import Simulator
from repro.workloads.dirlookup import DirectoryLookupWorkload, DirWorkloadSpec

from tests.helpers import (diff_by_lists, split_runs, tiny_spec,
                           timeline_by_lists)

#: One fully-populated instance of every event type the bus can carry.
SAMPLE_EVENTS = [
    RunMarker(0, "thread"),
    ThreadSpawned(5, 0, "t0"),
    ThreadArrived(210, 1, "t0"),
    SchedDecision(220, 1, "t0", "dir:D1", 2),
    MigrationStarted(230, 1, "t0", 2, 430),
    OperationStarted(430, 2, "t0", "dir:D1"),
    OperationFinished(930, 2, "t0", "dir:D1", 500, 4, 7, 120, 30),
    OperationFinished(1400, 2, "t1", "dir:D2", 400, None, None, None, None),
    ObjectAssigned(1500, 2, "dir:D1"),
    ObjectMoved(2000, 2, "dir:D1", 3, 0.75),
    RebalanceRound(2100, 1),
    CacheEvicted(2200, 2, "L3", 12345, "dir:D1"),
    CacheEvicted(2210, 2, "L3", 12389, None),
    CacheInvalidated(2300, 2, 99, 3, "dir:D1"),
    LockContended(2400, 2, "t1", "dirlock:D1"),
    FaultInjected(2450, "evict_line", "evicted line 7 from L2.1"),
    InvariantViolated(2460, "residency", "line 7: directory disagrees"),
    ThreadFinished(2500, 2, "t0"),
    SweepCaseStarted(0, "ab12cd", "coretime", "dirs320", 7133),
    SweepCaseFinished(1, "ab12cd", "coretime", "dirs320", 812.5, True),
    SweepCaseFailed(2, "ef34ab", "thread", "dirs640", "timeout after 30s"),
    WorkerJoined(3, "host-1234"),
    LeaseExpired(4, "ab12cd", "host-1234", 1, "worker lost"),
    WorkerLost(5, "host-1234", 2),
]


def run_events(until=120_000):
    """A small real run recorded through the full pipeline."""
    obs = Observability(capture_memory=True)
    machine = Machine(tiny_spec())
    sim = Simulator(machine, ThreadScheduler(), obs=obs)
    spec = DirWorkloadSpec(n_dirs=8, files_per_dir=16, think_cycles=10,
                           threads_per_core=2, seed=7)
    DirectoryLookupWorkload(machine, spec).spawn_all(sim)
    sim.run(until=until)
    return obs.events()


#: The header line of a current-schema stream.
META_LINE = json.dumps({"kind": "meta", "schema_version": SCHEMA_VERSION})


def decode_lines(lines):
    """Decode JSONL text lines; returns the decoder and the events."""
    decoder = EventDecoder()
    events = [decoder.decode_line(line, lineno)
              for lineno, line in enumerate(lines, 1)]
    return decoder, [event for event in events if event is not None]


# ---------------------------------------------------------------------------
# schema round-trip (satellite: no field loss for any event type)
# ---------------------------------------------------------------------------

class TestSchemaRoundTrip:
    def test_every_event_type_survives_export_and_ingest(self):
        assert {type(e) for e in SAMPLE_EVENTS} == set(ALL_EVENTS)
        decoder, events = decode_lines(
            events_to_jsonl(SAMPLE_EVENTS).splitlines())
        assert decoder.schema == SCHEMA_VERSION
        assert len(events) == len(SAMPLE_EVENTS)
        for original, parsed in zip(SAMPLE_EVENTS, events):
            assert type(parsed) is type(original)
            assert parsed == original        # field-by-field equality

    def test_real_run_round_trips_with_no_field_loss(self):
        events = run_events()
        _, parsed = decode_lines(events_to_jsonl(events).splitlines())
        assert parsed == events

    def test_exporter_stamps_schema_version(self):
        first = events_to_jsonl(SAMPLE_EVENTS).splitlines()[0]
        meta = json.loads(first)
        assert meta["kind"] == "meta"
        assert meta["schema_version"] == SCHEMA_VERSION

    def test_newer_schema_version_is_refused(self):
        lines = [json.dumps({"kind": "meta",
                             "schema_version": SCHEMA_VERSION + 1})]
        with pytest.raises(ProfileError, match="newer than this analyzer"):
            decode_lines(lines)

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ProfileError, match="unknown event kind"):
            decode_lines([json.dumps({"kind": "warp_drive", "ts": 1})])

    def test_unknown_field_is_refused(self):
        line = json.dumps({"kind": "spawn", "ts": 1, "core": 0,
                           "thread": "t0", "color": "red"})
        for header in ([], [META_LINE]):
            with pytest.raises(ProfileError, match="unknown fields"):
                decode_lines(header + [line])

    def test_missing_field_is_refused_on_current_schema(self):
        line = json.dumps({"kind": "spawn", "ts": 1, "core": 0})
        with pytest.raises(ProfileError, match="missing fields"):
            decode_lines([META_LINE, line])

    def test_legacy_headerless_stream_none_fills_new_fields(self):
        # PR 1's exporter wrote no meta line and no attribution fields.
        line = json.dumps({"kind": "op_end", "ts": 900, "core": 1,
                           "thread": "t0", "obj": "dir:D1", "cycles": 500})
        decoder, (event,) = decode_lines([line])
        assert decoder.schema == 1
        assert event.cycles == 500
        assert event.dram is None and event.spin is None

    def test_non_json_line_is_refused(self):
        with pytest.raises(ProfileError, match="not valid JSON"):
            decode_lines(["{nope"])

    def test_unhashable_kind_is_refused_naming_file_and_line(self, tmp_path):
        path = tmp_path / "bad.events.jsonl"
        path.write_text(META_LINE + '\n{"kind": []}\n')
        with pytest.raises(ProfileError) as info:
            list(iter_jsonl(str(path)))
        assert str(info.value) == (
            f"{path}: line 2: unknown event kind []")

    def test_bool_schema_version_is_refused(self):
        with pytest.raises(ProfileError, match="bad schema_version True"):
            decode_lines(['{"kind":"meta","schema_version":true}'])

    def test_repeated_meta_line_is_accepted(self):
        # Concatenated shards repeat the header mid-stream.
        line = json.dumps({"kind": "spawn", "ts": 1, "core": 0,
                           "thread": "t0"})
        decoder, events = decode_lines([META_LINE, line, META_LINE, line])
        assert events == [ThreadSpawned(1, 0, "t0")] * 2
        assert decoder.saw_meta and decoder.schema == SCHEMA_VERSION

    def test_blank_lines_are_skipped(self):
        text = events_to_jsonl(SAMPLE_EVENTS) + "\n\n"
        _, events = decode_lines(text.splitlines())
        assert len(events) == len(SAMPLE_EVENTS)


# ---------------------------------------------------------------------------
# the JSONL codec: byte parity with json.dumps, unchanged diagnostics
# ---------------------------------------------------------------------------

class Level(enum.IntEnum):
    L3 = 3


class Name(str):
    """A ``str`` subclass: JSON writes its characters."""


class Count(int):
    """An ``int`` subclass whose ``str`` is not what JSON writes."""

    def __repr__(self):
        return f"Count({int(self)})"

    __str__ = __repr__


#: Field values that stress JSON escaping and number formatting, and
#: values a ``%`` line template could get wrong.
ADVERSARIAL = [
    "%", "%s", "%%", "%(kind)s",
    None, True, False, 0, -1, 2 ** 64 + 1, -(2 ** 70), 0.1, -0.0, 1e300,
    "", 'say "hi"', "back\\slash\\", "ctl \x00\x01\x1f\x7f \n\r\t end",
    "non-ascii \u00e9 \u2603 \U0001d11e \u2028", '{"kind":"done"}',
    float("nan"), float("inf"), float("-inf"),
    Level.L3, Name('a "name" %s'), Count(7),
]


def slot_names(cls):
    """Every slot of an event class, walked independently of
    ``Event.fields``."""
    return [name for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ())]


def adversarial_events():
    """Every event class, each slot taking every adversarial value."""
    events = []
    for cls in ALL_EVENTS:
        names = slot_names(cls)
        for shift in range(len(ADVERSARIAL)):
            event = object.__new__(cls)
            for index, name in enumerate(names):
                setattr(event, name,
                        ADVERSARIAL[(index + shift) % len(ADVERSARIAL)])
            events.append(event)
    return events


def plain(value):
    """``value`` as a reader gives it back: its JSON text, decoded."""
    return json.loads(json.dumps(value))


def same_value(left, right):
    """Equal and of one type, with NaN equal to NaN."""
    if isinstance(left, float) and math.isnan(left):
        return isinstance(right, float) and math.isnan(right)
    return type(left) is type(right) and left == right


class TestCodec:
    def test_written_bytes_equal_the_json_dumps_reference(self, tmp_path):
        events = adversarial_events()
        heats = [e.heat for e in events if type(e) is ObjectMoved]
        assert any(math.isnan(h) for h in heats if isinstance(h, float))
        assert float("inf") in heats and float("-inf") in heats
        reference = "".join(
            json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"
            for data in [{"kind": "meta", "schema_version": SCHEMA_VERSION,
                          "source": "repro.obs"}]
            + [event.as_dict() for event in events])
        for event in events:
            assert list(event.as_dict()) == ["kind"] + slot_names(type(event))
        path = tmp_path / "adversarial.events.jsonl.gz"
        write_jsonl(str(path), iter(events))
        assert gzip.decompress(path.read_bytes()).decode("utf-8") \
            == reference
        assert events_to_jsonl(events) + "\n" == reference
        parsed = list(iter_jsonl(str(path)))
        assert len(parsed) == len(events)
        for original, back in zip(events, parsed):
            assert type(back) is type(original)
            for name in slot_names(type(original)):
                assert same_value(getattr(back, name),
                                  plain(getattr(original, name))), \
                    (original, name)

    def test_recorded_streams_equal_the_json_dumps_reference(self):
        events = (SAMPLE_EVENTS + run_events()
                  + list(synthesize(3_000, seed=8)))
        lines = events_to_jsonl(events).split("\n")[1:]
        assert lines == [json.dumps(event.as_dict(), separators=(",", ":"),
                                    sort_keys=True)
                         for event in events]

    def test_classes_outside_the_kinds_match_the_json_dumps_reference(self):
        class Probe(Event):
            __slots__ = ("note", "level")
            kind = "probe %s"

            def __init__(self, ts, note, level):
                self.ts = ts
                self.note = note
                self.level = level

        class LateSpawn(ThreadSpawned):
            """Shares ``spawn`` with its base but not its fields."""

            __slots__ = ("extra",)

            def __init__(self, ts, core, thread, extra):
                super().__init__(ts, core, thread)
                self.extra = extra

        events = [Probe(1, "50%", 2), Probe(2, None, Level.L3),
                  LateSpawn(3, 0, "t0", "x"), LateSpawn(4, 1, "t1", 5)]
        assert not {Probe, LateSpawn} & set(EVENT_KINDS.values())
        lines = events_to_jsonl(events).split("\n")[1:]
        assert lines == [json.dumps(event.as_dict(), separators=(",", ":"),
                                    sort_keys=True)
                         for event in events]

    @pytest.mark.parametrize("bad, detail", [
        ('{"kind":"spawn","ts":1,"core":0,"thread":"t0","color":"red"}',
         "spawn carries unknown fields ['color']"),
        ('{"kind":"spawn","ts":1,"core":0}',
         "spawn is missing fields ['thread']"),
        ('{"kind":"warp_drive","ts":1}', "unknown event kind 'warp_drive'"),
        ('[{"kind":"spawn"}]', "expected an object with a 'kind' field"),
        ('{"kind":"meta","schema_version":"5"}', "bad schema_version '5'"),
        ('  {"kind":"spawn",', None),
    ], ids=["extra", "missing", "kind", "array", "meta", "json"])
    def test_late_error_keeps_message_and_line(self, tmp_path, bad, detail):
        if detail is None:
            try:
                json.loads(bad.strip())
            except ValueError as exc:
                detail = f"not valid JSON: {exc}"
        lines = events_to_jsonl(synthesize(1_500, seed=5)).splitlines()
        lines[1_233] = bad
        path = tmp_path / "late.events.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProfileError) as info:
            list(iter_jsonl(str(path)))
        assert str(info.value) == f"{path}: line 1234: {detail}"

    def test_lines_are_decoded_one_at_a_time(self, tmp_path):
        # Neither line is JSON; joined by a comma they are two events.
        first = '{"kind":"done","ts":1,"core":0,"thread":"a"},{"kind":"done","ts":2'
        second = '"core":0,"thread":"b"}'
        assert len(json.loads(f"[{first},{second}]")) == 2
        path = tmp_path / "split.events.jsonl"
        path.write_text(f"{first}\n{second}\n")
        with pytest.raises(ProfileError) as info:
            list(iter_jsonl(str(path)))
        assert str(info.value).startswith(f"{path}: line 1: not valid JSON")


# ---------------------------------------------------------------------------
# determinism (satellite: same seed -> byte-identical JSONL)
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_same_seed_gives_byte_identical_jsonl(self):
        from repro.bench.figures import figure_2

        streams = []
        for _ in range(2):
            obs = Observability()
            figure_2(n_dirs=6, run_cycles=120_000, seed=11, obs=obs)
            streams.append(events_to_jsonl(obs.events()))
        assert streams[0] == streams[1]

    def test_different_seed_gives_different_stream(self):
        from repro.bench.figures import figure_2

        streams = []
        for seed in (11, 12):
            obs = Observability()
            figure_2(n_dirs=6, run_cycles=120_000, seed=seed, obs=obs)
            streams.append(events_to_jsonl(obs.events()))
        assert streams[0] != streams[1]


# ---------------------------------------------------------------------------
# stream structure
# ---------------------------------------------------------------------------

class TestStreamStructure:
    def test_split_runs_on_markers(self):
        events = [RunMarker(0, "a"), ThreadSpawned(1, 0, "t0"),
                  RunMarker(10, "b"), ThreadSpawned(11, 0, "t1")]
        sections = Profile.from_events(events).sections
        assert [s.display_label for s in sections] == ["a", "b"]
        assert [s.events for s in sections] == [1, 1]

    def test_markerless_stream_becomes_one_run(self):
        sections = Profile.from_events([ThreadSpawned(1, 0, "t0")]).sections
        assert len(sections) == 1 and sections[0].display_label == "run"

    def test_horizon_counts_migration_landing(self):
        events = [MigrationStarted(100, 0, "t0", 1, 300)]
        assert profile_of(events).horizon == 300
        rows = {d.name: d for d in diff_of(events, events)}
        assert rows["horizon (cycles)"].baseline_value == 300


# ---------------------------------------------------------------------------
# attribution analytics (the reducers behind every report section)
# ---------------------------------------------------------------------------

def profile_of(events):
    """One run's reducers, fed the way every report feeds them."""
    section = RunProfile("run")
    for event in events:
        section.feed(event)
    return section


def diff_of(baseline, candidate):
    """The diff of two one-run event lists, read through sections."""
    return diff_sections([profile_of(baseline)], [profile_of(candidate)])


class TestObjectCosts:
    def test_counters_and_ranking(self):
        events = [
            OperationFinished(100, 0, "t0", "hot", 900, 6, 2, 300, 40),
            OperationFinished(200, 0, "t1", "cold", 100, 1, 0, 10, 0),
            OperationFinished(300, 0, "t0", "hot", 700, 4, 2, 200, 0),
        ]
        hot, cold = profile_of(events).objects.result()
        assert hot.name == "hot" and cold.name == "cold"
        assert hot.ops == 2 and hot.attributed_ops == 2
        assert hot.cycles == 1600 and hot.dram_loads == 10
        assert hot.mem_stall_cycles == 500 and hot.spin_cycles == 40
        assert hot.cycles_per_op == 800
        assert hot.per_attributed_op(hot.dram_loads) == 5.0

    def test_migrated_op_is_counted_but_not_attributed(self):
        events = [OperationFinished(100, 0, "t0", "x", 500,
                                    None, None, None, None)]
        (cost,) = profile_of(events).objects.result()
        assert cost.ops == 1 and cost.attributed_ops == 0
        assert cost.per_attributed_op(cost.dram_loads) == 0.0

    def test_migration_charged_to_in_flight_operation(self):
        events = [
            OperationStarted(10, 0, "t0", "dir:D1"),
            MigrationStarted(20, 0, "t0", 1, 220),
            OperationFinished(400, 1, "t0", "dir:D1", 390,
                              None, None, None, None),
            MigrationStarted(500, 1, "t0", 0, 700),   # between operations
        ]
        costs = {cost.name: cost
                 for cost in profile_of(events).objects.result()}
        assert costs["dir:D1"].migrations == 1
        assert costs["dir:D1"].migration_cycles == 200
        assert costs["(no operation)"].migrations == 1

    def test_memory_events_attributed_by_obj_field(self):
        events = [
            CacheEvicted(10, 0, "L3", 1, "dir:D1"),
            CacheEvicted(11, 0, "L3", 2, None),      # outside an operation
            CacheInvalidated(12, 0, 3, 4, "dir:D1"),
        ]
        costs = {cost.name: cost
                 for cost in profile_of(events).objects.result()}
        assert costs["dir:D1"].evictions == 1
        assert costs["dir:D1"].invalidations == 4
        assert "(no operation)" not in costs


class TestCoreBreakdown:
    def test_local_ops_fill_busy(self):
        events = [OperationFinished(1000, 0, "t0", "x", 600, 1, 0, 200, 50)]
        (core,) = profile_of(events).cores.result(horizon=1000)
        assert core.busy == 600 and core.mem_stall == 200
        assert core.spin == 50 and core.idle == 400
        assert core.unplaced_ops == 0

    def test_cross_core_op_cycles_are_not_placed(self):
        # A migrated op's cycles span several cores and queue time;
        # placing them on the finishing core once pushed busy past 100%.
        events = [OperationFinished(1000, 0, "t0", "x", 5000,
                                    None, None, None, None)]
        (core,) = profile_of(events).cores.result(horizon=1000)
        assert core.busy == 0
        assert core.unplaced_ops == 1 and core.unplaced_cycles == 5000
        assert core.frac(core.busy) <= 1.0

    def test_outbound_migration_time(self):
        events = [MigrationStarted(100, 2, "t0", 3, 400)]
        (core,) = profile_of(events).cores.result(horizon=1000)
        assert core.core == 2 and core.migrating == 300


class TestMatrixLocksTimeline:
    def test_migration_matrix(self):
        events = [MigrationStarted(1, 0, "t0", 1, 201),
                  MigrationStarted(2, 0, "t1", 1, 202),
                  MigrationStarted(3, 1, "t0", 0, 203)]
        assert profile_of(events).matrix.result() \
            == {(0, 1): 2, (1, 0): 1}

    def test_lock_table_orders_by_contention(self):
        events = [LockContended(1, 0, "t0", "a"),
                  LockContended(2, 1, "t1", "b"),
                  LockContended(3, 1, "t2", "b")]
        stats = profile_of(events).locks.result()
        assert [stat.name for stat in stats] == ["b", "a"]
        assert stats[0].contended_acquires == 2
        assert stats[0].hottest_core == 1
        assert stats[0].threads == {"t1", "t2"}

    def test_occupancy_timeline_counts_assignments(self):
        events = [ObjectAssigned(10, 0, "a"), ObjectAssigned(20, 0, "b"),
                  ObjectMoved(900, 0, "a", 1, 0.5)]
        profile = profile_of(events)
        text = profile.occupancy.render(profile.horizon, width=10)
        lines = text.splitlines()
        assert lines[1].startswith("core   0")
        assert lines[1].rstrip("|").endswith("1")     # after the move
        assert lines[2].rstrip("|").endswith("1")     # core 1 gained it

    def test_occupancy_timeline_without_assignments(self):
        assert "no assignment events" \
            in profile_of([]).occupancy.render(0)


class TestFoldedStacks:
    def test_phases_partition_measured_cycles(self):
        events = [
            OperationStarted(10, 0, "t0", "x"),
            MigrationStarted(20, 0, "t0", 1, 120),
            OperationFinished(1000, 0, "t0", "x", 800, 2, 1, 300, 100),
        ]
        lines = folded_stacks(profile_of(events).objects.result(),
                              label="wl")
        parsed = {}
        for line in lines:
            stack, cycles = line.rsplit(" ", 1)
            workload, obj, phase = stack.split(";")
            assert workload == "wl" and obj == "x"
            parsed[phase] = int(cycles)
        assert parsed["mem-stall"] == 300
        assert parsed["lock-spin"] == 100
        assert parsed["compute"] == 400
        assert parsed["migration"] == 100
        assert (parsed["compute"] + parsed["mem-stall"]
                + parsed["lock-spin"]) == 800

    def test_unattributed_phase_for_migrated_ops(self):
        events = [OperationFinished(1000, 0, "t0", "x", 500,
                                    None, None, None, None)]
        (line,) = folded_stacks(profile_of(events).objects.result())
        assert line == "run;x;unattributed 500"

    def test_real_run_folds(self):
        lines = folded_stacks(profile_of(run_events()).objects.result())
        assert lines
        for line in lines:
            stack, cycles = line.rsplit(" ", 1)
            assert len(stack.split(";")) == 3
            assert int(cycles) > 0


# ---------------------------------------------------------------------------
# diff with confidence intervals
# ---------------------------------------------------------------------------

def _ops(values, obj="x", core=0):
    return [OperationFinished(100 * i, core, f"t{i}", obj, v, 1, 0, 10, 0)
            for i, v in enumerate(values)]


class TestDiff:
    def test_clear_improvement_is_significant(self):
        base = _ops([1000, 1010, 990, 1005, 995] * 4)
        cand = _ops([500, 510, 490, 505, 495] * 4)
        deltas = {d.name: d for d in diff_of(base, cand)}
        latency = deltas["op latency (cycles/op)"]
        assert latency.sampled
        assert latency.delta == pytest.approx(-500, abs=5)
        assert latency.ci95 < 20
        assert latency.significant is True

    def test_noise_is_not_significant(self):
        base = _ops([1000, 1200, 800, 1100, 900])
        cand = _ops([1010, 1190, 810, 1090, 910])
        deltas = {d.name: d for d in diff_of(base, cand)}
        assert deltas["op latency (cycles/op)"].significant is False

    def test_ci_matches_normal_approximation(self):
        base_vals, cand_vals = [100, 200, 300], [150, 250, 350]
        delta = diff_of(_ops(base_vals), _ops(cand_vals))[0]
        expected = 1.96 * (summarise(base_vals).stderr ** 2
                           + summarise(cand_vals).stderr ** 2) ** 0.5
        assert delta.ci95 == pytest.approx(expected)

    def test_count_metrics_have_plain_deltas(self):
        base = [MigrationStarted(1, 0, "t0", 1, 201)]
        cand = [MigrationStarted(1, 0, "t0", 1, 201),
                MigrationStarted(2, 0, "t1", 1, 202)]
        deltas = {d.name: d for d in diff_of(base, cand)}
        migrations = deltas["migrations"]
        assert not migrations.sampled
        assert migrations.delta == 1 and migrations.ci95 is None

    def test_diff_metrics_snapshots(self):
        base = {"sim.ops": 100, "op.latency": {"mean": 2000.0, "count": 5},
                "only.base": 1}
        cand = {"sim.ops": 150, "op.latency": {"mean": 1500.0, "count": 5},
                "only.cand": 2}
        deltas = {d.name: d for d in diff_metrics(base, cand)}
        assert deltas["sim.ops"].delta == 50
        assert deltas["op.latency.mean"].delta == -500
        assert "only.base" not in deltas and "only.cand" not in deltas

    def test_delta_pct(self):
        delta = MetricDelta("n", None, None, 100.0, 150.0)
        assert delta.delta_pct == pytest.approx(50.0)
        assert MetricDelta("n", None, None, 0.0, 5.0).delta_pct is None

    def test_equals_the_list_fold_on_synth_streams(self):
        for seed in range(3):
            base = with_memory_events(
                synth(400, seed, "a") + synth(300, seed + 10, "b"), seed)
            cand = with_memory_events(synth(500, seed + 20, "a"), seed + 1)
            assert_same_rows(
                diff_sections(sections_of(base), sections_of(cand)),
                diff_by_lists(base, cand))

    def test_equals_the_list_fold_with_one_sample(self):
        base = [OperationFinished(10, 0, "t0", "x", 700, 2, 1, 50, 5)]
        cand = [OperationFinished(20, 1, "t1", "y", 900, 3, 0, 80, 0)]
        got = diff_sections(sections_of(base), sections_of(cand))
        assert_same_rows(got, diff_by_lists(base, cand))
        assert got[0].baseline.n == 1 and got[0].ci95 == 0.0

    def test_equals_the_list_fold_without_attributed_operations(self):
        base = [OperationFinished(100 * i, 0, f"t{i}", "x", 300 + 7 * i,
                                  None, None, None, None)
                for i in range(4)]
        cand = base[:2] + [CacheEvicted(500, 1, "L3", 9, None)]
        got = diff_sections(sections_of(base), sections_of(cand))
        assert_same_rows(got, diff_by_lists(base, cand))
        assert [d.name for d in got if d.sampled] \
            == ["op latency (cycles/op)"]

    def test_merged_profiles_diff_like_the_list_fold_at_every_split(self):
        events = with_memory_events(
            synth(90, 21, "a") + synth(90, 22, "b"), 5)
        other = with_memory_events(synth(150, 23, "a"), 6)
        want = diff_by_lists(events, other)
        other_sections = sections_of(other)
        for cut in range(len(events) + 1):
            merged = merge_profiles([Profile.from_events(events[:cut]),
                                     Profile.from_events(events[cut:])])
            assert_same_rows(diff_sections(merged.sections,
                                           other_sections), want)


def synth(n, seed, label):
    return list(synthesize(n, seed=seed, label=label))


def sections_of(events):
    return Profile.from_events(events).sections


def with_memory_events(events, seed):
    """``events`` with an eviction or an invalidation, each with or
    without an object, after about one event in five."""
    rng = random.Random(seed)
    mixed = []
    for event in events:
        mixed.append(event)
        if rng.random() < 0.2:
            obj = rng.choice((None, "obj1", "obj2"))
            if rng.random() < 0.5:
                mixed.append(CacheEvicted(event.ts, rng.randrange(4), "L3",
                                          rng.randrange(99), obj))
            else:
                mixed.append(CacheInvalidated(
                    event.ts, rng.randrange(4), rng.randrange(99),
                    rng.randrange(1, 4), obj))
    return mixed


def assert_same_rows(got, want):
    """Section diff rows equal the list fold's: the same text, and every
    statistic but the standard deviation equal, which the list fold sums
    in floating point and the moments compute exactly."""
    assert render_diff(got) == render_diff(want)
    assert [d.name for d in got] == [d.name for d in want]
    for mine, theirs in zip(got, want):
        assert (mine.baseline_value, mine.candidate_value) \
            == (theirs.baseline_value, theirs.candidate_value)
        for stats, expected in ((mine.baseline, theirs.baseline),
                                (mine.candidate, theirs.candidate)):
            if expected is None:
                assert stats is None
                continue
            assert (stats.n, stats.mean, stats.minimum, stats.maximum) \
                == (expected.n, expected.mean, expected.minimum,
                    expected.maximum)
            assert stats.stdev == pytest.approx(expected.stdev, rel=1e-12)


# ---------------------------------------------------------------------------
# report rendering & end-to-end CLI
# ---------------------------------------------------------------------------

class TestReportAndCli:
    @pytest.fixture()
    def recorded(self, tmp_path):
        obs = Observability(capture_memory=True)
        machine = Machine(tiny_spec())
        sim = Simulator(machine, ThreadScheduler(), obs=obs)
        spec = DirWorkloadSpec(n_dirs=8, files_per_dir=16, think_cycles=10,
                               threads_per_core=2, seed=7)
        DirectoryLookupWorkload(machine, spec).spawn_all(sim)
        sim.run(until=120_000)
        path = tmp_path / "run.events.jsonl"
        obs.write_jsonl(str(path))
        metrics = tmp_path / "run.metrics.json"
        metrics.write_text(json.dumps(obs.metrics_snapshot()),
                           encoding="utf-8")
        return path, metrics

    def test_cli_report(self, recorded, capsys):
        path, metrics = recorded
        assert analyze_main(["report", str(path),
                             "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "Per-object attribution" in out
        assert "Per-core time breakdown" in out
        assert "Lock contention" in out or "no lock contention" in out
        assert "dir:" in out
        assert "Metrics snapshot" in out

    def test_cli_report_to_file(self, recorded, tmp_path):
        path, _ = recorded
        out = tmp_path / "report.txt"
        assert analyze_main(["report", str(path), "-o", str(out)]) == 0
        assert "Per-object attribution" in out.read_text(encoding="utf-8")

    def test_cli_diff_self_is_within_noise(self, recorded, capsys,
                                           monkeypatch):
        path, _ = recorded
        profiled = []
        profile = StreamProfiler.feed_path

        def counted(self, name):
            profiled.append(name)
            return profile(self, name)

        monkeypatch.setattr(StreamProfiler, "feed_path", counted)
        assert analyze_main(["diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "within noise" in out
        assert "significant" not in out.replace("within noise", "")
        # The recording is profiled once, for both sides.
        assert profiled == [str(path)]

    def test_cli_folded(self, recorded, tmp_path):
        path, _ = recorded
        out = tmp_path / "run.folded"
        assert analyze_main(["folded", str(path), "-o", str(out)]) == 0
        content = out.read_text(encoding="utf-8").strip()
        assert content
        for line in content.splitlines():
            stack, cycles = line.rsplit(" ", 1)
            assert stack.count(";") == 2 and int(cycles) > 0

    def test_cli_timeline(self, recorded, capsys):
        path, _ = recorded
        assert analyze_main(["timeline", str(path)]) == 0
        ((label, events),) = split_runs(iter_jsonl(str(path)))
        assert label == "thread"
        assert capsys.readouterr().out \
            == f"=== run: thread ===\n{timeline_by_lists(events)}\n\n"

    @pytest.fixture()
    def runs_file(self, tmp_path):
        """Four runs: a headless prefix, two synthetic runs and an empty
        one, two of them labelled ``a``."""
        events = ([OperationFinished(50, 1, "t9", "z", 40, None, None,
                                     None, None)]
                  + with_memory_events(synth(300, 1, "a"), 1)
                  + synth(200, 2, "b") + [RunMarker(0, "a")])
        path = tmp_path / "runs.events.jsonl"
        write_jsonl(str(path), events)
        return str(path), split_runs(events)

    @pytest.mark.parametrize("run_filter,picked", [
        (None, [0, 1, 2, 3]), ("1", [1]), ("a", [1, 3]), ("run", [0])])
    def test_cli_timeline_draws_runs_like_the_list_fold(
            self, runs_file, capsys, run_filter, picked):
        path, runs = runs_file
        args = ["timeline", path, "--width", "40"]
        assert analyze_main(args + (["--run", run_filter]
                                    if run_filter else [])) == 0
        assert capsys.readouterr().out == "".join(
            f"=== run: {runs[i][0]} ===\n"
            f"{timeline_by_lists(runs[i][1], width=40)}\n\n"
            for i in picked)

    @pytest.mark.parametrize("run_filter,picked", [
        (None, [0, 1, 2, 3]), ("1", [1]), ("a", [1, 3])])
    def test_cli_diff_reads_runs_like_the_list_fold(
            self, runs_file, tmp_path, capsys, run_filter, picked):
        path, runs = runs_file
        cand = tmp_path / "cand.events.jsonl"
        cand_events = with_memory_events(synth(250, 3, "a"), 2)
        write_jsonl(str(cand), cand_events + synth(100, 4, "b"))
        cand_runs = split_runs(iter_jsonl(str(cand)))
        args = ["diff", path, str(cand)]
        assert analyze_main(args + (["--run", run_filter]
                                    if run_filter else [])) == 0
        if run_filter == "1":
            cand_picked = [cand_runs[1][1]]
        elif run_filter == "a":
            cand_picked = [cand_runs[0][1]]
        else:
            cand_picked = [run for _, run in cand_runs]
        deltas = diff_by_lists(
            [event for i in picked for event in runs[i][1]],
            [event for run in cand_picked for event in run])
        assert capsys.readouterr().out == (
            f"baseline:  {path}\ncandidate: {cand}\n\n"
            f"{render_diff(deltas)}\n")

    def test_cli_run_filter(self, recorded, capsys):
        path, _ = recorded
        assert analyze_main(["report", str(path), "--run", "thread"]) == 0
        assert analyze_main(["report", str(path), "--run", "0"]) == 0
        assert analyze_main(["report", str(path), "--run", "nope"]) == 2
        assert "no run labelled" in capsys.readouterr().err

    def test_cli_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        assert analyze_main(["report", str(missing)]) == 2
        assert "repro-analyze" in capsys.readouterr().err

    def test_cli_rejects_newer_schema(self, tmp_path, capsys):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"kind": "meta", "schema_version": SCHEMA_VERSION + 1}) + "\n",
            encoding="utf-8")
        assert analyze_main(["report", str(path)]) == 2
        assert "newer than this analyzer" in capsys.readouterr().err

    def test_profile_report_matches_cli_sections(self):
        obs = Observability()
        machine = Machine(tiny_spec())
        sim = Simulator(machine, ThreadScheduler(), obs=obs)
        spec = DirWorkloadSpec(n_dirs=8, files_per_dir=16, think_cycles=10,
                               threads_per_core=2, seed=7)
        DirectoryLookupWorkload(machine, spec).spawn_all(sim)
        sim.run(until=120_000)
        text = obs.profile_report()
        assert "Per-object attribution" in text
        assert "=== run: thread" in text


# ---------------------------------------------------------------------------
# stream summary: what one side of a diff reads off its sections
# ---------------------------------------------------------------------------

class TestSummariseStream:
    def test_counts(self):
        events = [
            OperationFinished(100, 0, "t0", "x", 500, 1, 0, 10, 0),
            OperationFinished(200, 0, "t1", "x", 400, None, None, None,
                              None),
            MigrationStarted(300, 0, "t0", 1, 500),
            LockContended(400, 0, "t0", "lk"),
            CacheEvicted(500, 0, "L3", 1, None),
            CacheInvalidated(600, 0, 2, 3, None),
        ]
        objects = profile_of(events).objects
        cycles, dram = objects.samples[:2]
        assert (cycles.n, cycles.total, cycles.squares) \
            == (2, 900, 500 ** 2 + 400 ** 2)
        assert (cycles.minimum, cycles.maximum) == (400, 500)
        assert dram.n == 1                     # attributed ops only
        # Memory events without an object still count run-wide.
        assert (objects.evictions, objects.invalidations) == (1, 3)
        rows = {d.name: d.baseline_value for d in diff_of(events, events)
                if not d.sampled}
        assert rows == {"ops": 2, "migrations": 1, "migration cycles": 200,
                        "contended lock acquires": 1, "L3 evictions": 1,
                        "invalidated copies": 3, "horizon (cycles)": 600}
