"""Tests for repro.obs.stream: reducers, merge law, shards, live tail."""

import glob
import gzip
import json
import os
import socket
import threading
import tracemalloc

import pytest

from repro.core.coretime import CoreTimeScheduler
from repro.cpu.machine import Machine
from repro.errors import ConfigError, ProfileError
from repro.obs import Observability
from repro.obs.cli import main as analyze_main
from repro.obs.events import (LockContended, ObjectAssigned,
                              OperationFinished, RunMarker)
from repro.obs.export import write_jsonl
from repro.obs.metrics import OP_LATENCY_BUCKETS, Histogram
from repro.obs.profile import (EventDecoder, iter_jsonl, render_lock_table,
                               render_object_costs)
from repro.obs.stream import (OccupancyReducer, Profile, RunProfile,
                              ShardRecorder, StreamProfiler, load_profile,
                              merge_profiles, synthesize)
from repro.sim.engine import Simulator
from repro.sweep import presets
from repro.sweep.runner import execute_case_record, run_sweep
from repro.workloads.dirlookup import DirectoryLookupWorkload, DirWorkloadSpec

from tests.helpers import split_runs, tiny_spec
from tests.test_sweep import quick_options, tiny_sweep


def synth(n, seed=0, label="synthetic", **kwargs):
    return list(synthesize(n, seed=seed, label=label, **kwargs))


def run_profile(label, events):
    """One run's section, fed event by event."""
    section = RunProfile(label)
    for event in events:
        section.feed(event)
    return section


def fold(reducer, events):
    """Feed ``events`` to one reducer through its dispatch table."""
    handlers = reducer.handlers()
    for event in events:
        handlers[type(event)](event)
    return reducer


# ---------------------------------------------------------------------------
# the merge law: merge(P(a), P(b)) == P(a + b), any split, any stream
# ---------------------------------------------------------------------------

class TestMergeLaw:
    def test_every_split_point_agrees_with_whole(self):
        events = synth(600, seed=3)
        whole = Profile.from_events(events)
        # Cuts landing mid-operation, mid-migration and right after the
        # run marker are the interesting ones; sweep a spread of them.
        for cut in (1, 2, 97, 300, 599):
            left = Profile.from_events(events[:cut])
            right = Profile.from_events(events[cut:])
            merged = merge_profiles([left, right])
            assert merged.to_json() == whole.to_json(), f"split at {cut}"

    def test_merge_does_not_mutate_operands(self):
        events = synth(200, seed=5)
        left = Profile.from_events(events[:100])
        right = Profile.from_events(events[100:])
        before_left, before_right = left.to_json(), right.to_json()
        merge_profiles([left, right])
        assert left.to_json() == before_left
        assert right.to_json() == before_right

    def test_associativity(self):
        events = synth(450, seed=9)
        a = Profile.from_events(events[:150])
        b = Profile.from_events(events[150:300])
        c = Profile.from_events(events[300:])
        assert merge_profiles([merge_profiles([a, b]), c]).to_json() \
            == merge_profiles([a, merge_profiles([b, c])]).to_json()

    def test_merge_profiles_folds_left_to_right(self):
        events = synth(300, seed=4)
        parts = [Profile.from_events(events[i:i + 100])
                 for i in range(0, 300, 100)]
        assert merge_profiles(parts).to_json() \
            == Profile.from_events(events).to_json()

    def test_merge_profiles_rejects_empty(self):
        with pytest.raises(ProfileError):
            merge_profiles([])

    def test_mismatched_sampling_params_refuse_to_merge(self):
        a = Profile.from_events(synth(50), sample_capacity=64)
        b = Profile.from_events(synth(50), sample_capacity=128)
        with pytest.raises(ProfileError, match="sampl"):
            merge_profiles([a, b])

    def test_artifact_round_trips(self):
        profile = Profile.from_events(synth(400, seed=8))
        text = profile.to_json()
        again = Profile.from_json(text)
        assert again.to_json() == text
        assert again.render() == profile.render()

    def test_bad_artifact_names_the_source(self):
        with pytest.raises(ProfileError, match="shard.json"):
            Profile.from_json('{"kind": "nope"}', source="shard.json")

    def test_version_2_artifact_is_refused(self):
        # Version 2 artifacts lack the moments and totals a diff reads.
        document = json.loads(Profile.from_events(synth(50)).to_json())
        document["version"] = 2
        with pytest.raises(ProfileError,
                           match="profile format version 2 is not "
                                 "supported"):
            Profile.from_json(json.dumps(document))


# ---------------------------------------------------------------------------
# one section per run, even when runs share a label
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def two_runs_one_label():
    """Two CoreTime runs recorded into one stream: both are labelled
    ``coretime`` and each restarts at cycle 0."""
    obs = Observability()
    for n_dirs in (4, 12):
        machine = Machine(tiny_spec())
        sim = Simulator(machine, CoreTimeScheduler(), obs=obs)
        spec = DirWorkloadSpec(n_dirs=n_dirs, files_per_dir=16,
                               think_cycles=10, threads_per_core=2, seed=7)
        DirectoryLookupWorkload(machine, spec).spawn_all(sim)
        sim.run(until=200_000)
    return obs.events()


class TestRepeatedLabels:
    def test_each_run_is_its_own_section(self, two_runs_one_label):
        profile = Profile.from_events(two_runs_one_label)
        assert [s.display_label for s in profile.sections] \
            == ["coretime", "coretime"]
        assert profile.render().count("=== run: coretime (") == 2
        # Folding both runs over one run's horizon pushed cores past
        # 100% busy; per run, no per-core share can exceed the horizon.
        for section in profile.sections:
            for core in section.cores.result(section.horizon):
                for value in (core.busy, core.mem_stall, core.spin,
                              core.migrating, core.idle):
                    assert core.frac(value) <= 1.0, core

    def test_merge_law_across_the_second_marker(self, two_runs_one_label):
        events = two_runs_one_label
        whole = Profile.from_events(events).to_json()
        # Independent oracle: each section is its run profiled alone.
        per_run = [run_profile(label, run).state()
                   for label, run in split_runs(events)]
        second = next(index for index, event in enumerate(events)
                      if type(event) is RunMarker and index > 0)
        for cut in (second - 1, second, second + 1):
            left = Profile.from_events(events[:cut])
            right = Profile.from_events(events[cut:])
            merged = merge_profiles([left, right])
            assert merged.to_json() == whole, f"cut at {cut}"
            assert [s.state() for s in merged.sections] == per_run


# ---------------------------------------------------------------------------
# a recording's report == the in-memory report, byte for byte
# ---------------------------------------------------------------------------

class TestStreamingMatchesBatch:
    def test_report_identical_on_real_recording(self, tmp_path, capsys):
        from repro.bench.figures import figure_2

        obs = Observability()
        figure_2(n_dirs=6, run_cycles=120_000, seed=11, obs=obs)
        path = str(tmp_path / "fig2.events.jsonl.gz")
        obs.write_jsonl(path)
        assert analyze_main(["report", path]) == 0
        assert capsys.readouterr().out == obs.profile_report() + "\n"


# ---------------------------------------------------------------------------
# deterministic reservoir (bottom-k) occupancy sampling
# ---------------------------------------------------------------------------

def _occupancy_events(n, seed):
    import random
    rng = random.Random(seed)
    ts = 0
    events = []
    for _ in range(n):
        ts += rng.randrange(1, 50)
        events.append(ObjectAssigned(ts, rng.randrange(4),
                                     f"dir:D{rng.randrange(40)}"))
    return events


class TestOccupancySampling:
    def test_seeded_and_order_free(self):
        events = _occupancy_events(500, seed=2)
        forward = fold(OccupancyReducer(capacity=64), events)
        backward = fold(OccupancyReducer(capacity=64), reversed(events))
        assert forward.state() == backward.state()
        assert forward.render(events[-1].ts) == backward.render(
            events[-1].ts)

    def test_merge_law_survives_pruning(self):
        events = _occupancy_events(500, seed=7)
        whole = fold(OccupancyReducer(capacity=64), events)
        left = fold(OccupancyReducer(capacity=64), events[:250])
        right = fold(OccupancyReducer(capacity=64), events[250:])
        left.merge_from(right)
        assert left.state() == whole.state()

    def test_annotates_when_sampled(self):
        events = _occupancy_events(300, seed=1)
        reducer = fold(OccupancyReducer(capacity=32), events)
        assert reducer.pruned
        rendered = reducer.render(events[-1].ts)
        assert "[sampled: kept" in rendered
        assert f"of {reducer.total:,} changes" in rendered

    def test_unsampled_stream_has_no_annotation(self):
        reducer = fold(OccupancyReducer(), _occupancy_events(100, seed=1))
        assert "[sampled" not in reducer.render(10_000)

    def test_capacity_mismatch_refuses_merge(self):
        with pytest.raises(ProfileError):
            OccupancyReducer(capacity=32).merge_from(
                OccupancyReducer(capacity=64))


# ---------------------------------------------------------------------------
# satellite: gzip end to end
# ---------------------------------------------------------------------------

class TestGzip:
    def test_round_trip_equals_plain(self, tmp_path):
        events = synth(500, seed=12)
        plain = str(tmp_path / "r.events.jsonl")
        gzipped = str(tmp_path / "r.events.jsonl.gz")
        write_jsonl(plain, events)
        write_jsonl(gzipped, events)
        assert list(iter_jsonl(gzipped)) == list(iter_jsonl(plain))
        with gzip.open(gzipped, "rt", encoding="utf-8") as handle:
            assert handle.read() == open(plain, encoding="utf-8").read()

    def test_gzip_bytes_are_deterministic(self, tmp_path):
        events = synth(200, seed=3)
        paths = [str(tmp_path / f"{i}.jsonl.gz") for i in range(2)]
        for path in paths:
            write_jsonl(path, events)
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    def test_concatenated_members_read_as_one_stream(self, tmp_path):
        a = synth(150, seed=1, label="alpha")
        b = synth(150, seed=2, label="beta")
        cat = str(tmp_path / "cat.events.jsonl.gz")
        for part, mode in ((a, "wb"), (b, "ab")):
            member = str(tmp_path / "member.jsonl.gz")
            write_jsonl(member, part)
            with open(cat, mode) as out:
                out.write(open(member, "rb").read())
        events = list(iter_jsonl(cat))
        assert [label for label, _ in split_runs(events)] \
            == ["alpha", "beta"]
        assert len(events) == len(a) + len(b)

    def test_iter_jsonl_reads_back_written_events(self, tmp_path):
        path = str(tmp_path / "x.events.jsonl.gz")
        write_jsonl(path, synthesize(300, seed=4))
        assert list(iter_jsonl(path)) == synth(300, seed=4)

    def test_writing_never_buffers_the_whole_stream(self, tmp_path):
        path = tmp_path / "flat.events.jsonl.gz"
        tracemalloc.start()
        try:
            write_jsonl(str(path), synthesize(20_000, seed=6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = len(gzip.decompress(path.read_bytes()))
        assert peak < size / 3, (peak, size)


# ---------------------------------------------------------------------------
# satellite: error messages carry the path; --top notes dropped rows
# ---------------------------------------------------------------------------

class TestDiagnostics:
    def test_iter_jsonl_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.events.jsonl"
        path.write_text('{"kind":"meta","schema_version":5}\nnot json\n')
        with pytest.raises(ProfileError) as info:
            list(iter_jsonl(str(path)))
        assert str(path) in str(info.value)
        assert "line 2" in str(info.value)

    def test_load_profile_error_names_file(self, tmp_path):
        path = tmp_path / "junk.profile.json"
        path.write_text("{}")
        with pytest.raises(ProfileError, match="junk.profile.json"):
            load_profile(str(path))

    def test_top_caps_log_dropped_rows(self):
        events = [OperationFinished(100 * (i + 1), 0, "t0", f"dir:D{i}",
                                    100, 1, 1, 10, 5)
                  for i in range(8)]
        costs = run_profile(None, events).objects.result()
        text = render_object_costs(costs, top=3)
        assert "5 rows dropped" in text
        full = render_object_costs(costs, top=8)
        assert "dropped" not in full

    def test_decode_refuses_frames_without_kind(self):
        # Watch-feed frames reach decode() directly, not via a JSONL line
        # (``repro-analyze tail`` decodes each frame's event itself).
        decoder = EventDecoder()
        for frame in ({}, {"type": "event"}, "x", None):
            with pytest.raises(ProfileError, match="'kind' field"):
                decoder.decode(frame)

    def test_lock_table_logs_dropped_rows(self):
        events = [LockContended(10 * (i + 1), 0, "t0", f"lock:L{i}")
                  for i in range(6)]
        locks = run_profile(None, events).locks.result()
        text = render_lock_table(locks, top=2)
        assert "4 rows dropped" in text


# ---------------------------------------------------------------------------
# mergeable primitives (Histogram.merge)
# ---------------------------------------------------------------------------

class TestMergeablePrimitives:
    def test_histogram_merge_folds_exactly(self):
        whole = Histogram("h", OP_LATENCY_BUCKETS)
        left = Histogram("h", OP_LATENCY_BUCKETS)
        right = Histogram("h", OP_LATENCY_BUCKETS)
        values = [50, 150, 700, 30_000, 500_000, 90]
        for value in values:
            whole.observe(value)
        for value in values[:3]:
            left.observe(value)
        for value in values[3:]:
            right.observe(value)
        left.merge(right)
        assert left.counts == whole.counts
        assert left.summary().as_dict() == whole.summary().as_dict()

    def test_histogram_merge_rejects_different_buckets(self):
        with pytest.raises(ConfigError):
            Histogram("a", (1, 2)).merge(Histogram("b", (1, 3)))


# ---------------------------------------------------------------------------
# CLI: profile / merge / synth / RSS cap
# ---------------------------------------------------------------------------

class TestCli:
    def test_profile_then_merge_round_trip(self, tmp_path, capsys):
        events = str(tmp_path / "e.jsonl.gz")
        write_jsonl(events, synthesize(800, seed=2))
        shard = str(tmp_path / "e.profile.json")
        assert analyze_main(["profile", events, "-o", shard]) == 0
        merged = str(tmp_path / "m.profile.json")
        assert analyze_main(["merge", shard, shard, "-o", merged]) == 0
        capsys.readouterr()
        doubled = load_profile(merged)
        single = load_profile(shard)
        assert doubled.total_events == 2 * single.total_events

    def test_merge_without_out_prints_report(self, tmp_path, capsys):
        events = str(tmp_path / "e.jsonl")
        write_jsonl(events, synthesize(300, seed=2))
        shard = str(tmp_path / "e.profile.json")
        analyze_main(["profile", events, "-o", shard])
        capsys.readouterr()
        assert analyze_main(["merge", shard]) == 0
        assert "=== run: synthetic" in capsys.readouterr().out

    def test_synth_is_deterministic(self, tmp_path, capsys):
        paths = [str(tmp_path / f"{i}.jsonl.gz") for i in range(2)]
        for path in paths:
            assert analyze_main(["synth", "-o", path, "--events", "500",
                                 "--seed", "9"]) == 0
        capsys.readouterr()
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    @pytest.mark.parametrize("flag, value", [
        ("--events", "0"), ("--events", "-5"), ("--cores", "0"),
        ("--threads", "0"), ("--objects", "0")])
    def test_synth_rejects_counts_below_one(self, tmp_path, capsys, flag,
                                            value):
        path = tmp_path / "bad.events.jsonl"
        argv = ["synth", "-o", str(path), "--events", "100", flag, value]
        assert analyze_main(argv) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be at least 1, got {value}" in err
        assert not path.exists()

    def test_synth_writes_exactly_the_events_asked_for(self, tmp_path,
                                                       capsys):
        path = str(tmp_path / "one.events.jsonl")
        assert analyze_main(["synth", "-o", path, "--events", "1"]) == 0
        assert "(1 events)" in capsys.readouterr().out
        assert [event.kind for event in iter_jsonl(path)] == ["run"]

    @pytest.mark.parametrize("name", [
        "n_events", "n_cores", "n_objects", "n_threads"])
    def test_synthesize_rejects_counts_below_one(self, name):
        counts = {"n_events": 10, name: 0}
        with pytest.raises(ConfigError, match=f"{name} must be at least 1"):
            synthesize(**counts)

    def test_empty_stream_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"kind":"meta","schema_version":5}\n')
        assert analyze_main(["report", str(path)]) == 2
        assert "stream contains no events" in capsys.readouterr().err
        assert analyze_main(["profile", str(path), "-o",
                             str(tmp_path / "p.json")]) == 2

    def test_rss_cap_must_be_positive(self, tmp_path, capsys):
        path = str(tmp_path / "e.jsonl")
        write_jsonl(path, synthesize(10, seed=0))
        assert analyze_main(["report", path, "--max-rss-mb", "0"]) == 2

    def test_generous_rss_cap_passes(self, tmp_path, capsys):
        pytest.importorskip("resource")
        import subprocess
        import sys
        path = str(tmp_path / "e.jsonl.gz")
        write_jsonl(path, synthesize(2_000, seed=1))
        # Subprocess: setrlimit(RLIMIT_AS) cannot be raised back by an
        # unprivileged process, so the cap must not leak into pytest.
        result = subprocess.run(
            [sys.executable, "-m", "repro.obs.cli", "report", path,
             "--max-rss-mb", "2048"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "=== run: synthetic" in result.stdout


# ---------------------------------------------------------------------------
# live tail over the watch-feed protocol
# ---------------------------------------------------------------------------

def _watch_feed(frames):
    """A one-shot coordinator stub answering ``watch`` with ``frames``;
    returns its ``HOST:PORT`` and a join-and-close callable."""
    from repro.sweep.dist.protocol import recv_frame, send_frame

    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def serve():
        conn, _ = server.accept()
        with conn:
            assert recv_frame(conn)["type"] == "watch"
            for frame in frames:
                send_frame(conn, frame)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()

    def stop():
        thread.join(timeout=5)
        server.close()
    return f"127.0.0.1:{port}", stop


class TestTail:
    def test_tail_profiles_a_watch_feed(self, tmp_path, capsys):
        events = synth(300, seed=5, label="livesweep")
        address, stop = _watch_feed(
            [{"type": "meta", "schema_version": 5}]
            + [{"type": "event", "event": event.as_dict()}
               for event in events]
            + [{"type": "drain"}])
        out = str(tmp_path / "tail.txt")
        code = analyze_main(["tail", "--connect", address,
                             "--interval", "0", "-o", out])
        stop()
        assert code == 0
        report = open(out, encoding="utf-8").read()
        assert report.rstrip("\n") \
            == Profile.from_events(events).render()
        assert "=== run: livesweep" in report

    def test_tail_empty_feed_exits_nonzero(self, capsys):
        address, stop = _watch_feed([{"type": "drain"}])
        code = analyze_main(["tail", "--connect", address])
        stop()
        assert code == 1

    def test_tail_malformed_event_frame_exits_2(self, capsys):
        address, stop = _watch_feed(
            [{"type": "meta", "schema_version": 5}, {"type": "event"}])
        code = analyze_main(["tail", "--connect", address])
        stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"{address}: frame 1: expected an object" in err


# ---------------------------------------------------------------------------
# sweep shard recording: per-worker profiles merge to the fleet truth
# ---------------------------------------------------------------------------

def _profile_of_concatenated_shards(profile_dir):
    profiler = StreamProfiler()
    for path in sorted(glob.glob(os.path.join(profile_dir,
                                              "*.events.jsonl.gz"))):
        profiler.feed_path(path)
    return profiler.profile


class TestSweepShardProfiles:
    def test_serial_sweep_writes_consistent_shard(self, tmp_path):
        shards = str(tmp_path / "shards")
        outcome = run_sweep(
            tiny_sweep(), options=quick_options(profile_dir=shards))
        assert outcome.failed == 0
        assert sorted(os.listdir(shards)) \
            == ["serial.events.jsonl.gz", "serial.profile.json"]
        recorded = load_profile(os.path.join(shards,
                                             "serial.profile.json"))
        replayed = _profile_of_concatenated_shards(shards)
        assert recorded.to_json() == replayed.to_json()
        # One section per case, in grid order.
        assert [s.display_label for s in recorded.sections] \
            == [case.scheduler for case in tiny_sweep().expand()]

    def test_worker_shards_merge_to_concatenated_profile(self, tmp_path):
        shards = str(tmp_path / "shards")
        outcome = run_sweep(
            tiny_sweep(),
            options=quick_options(workers=2, profile_dir=shards))
        assert outcome.failed == 0
        shard_paths = sorted(glob.glob(os.path.join(
            shards, "*.profile.json")))
        assert len(shard_paths) >= 1      # one per worker that computed
        merged = merge_profiles([load_profile(path)
                                 for path in shard_paths])
        replayed = _profile_of_concatenated_shards(shards)
        assert merged.to_json() == replayed.to_json()
        assert merged.total_events > 0

    def test_shard_recorder_skips_profile_when_idle(self, tmp_path):
        recorder = ShardRecorder(str(tmp_path / "dir"), "idle")
        assert recorder.close() is None
        assert os.listdir(str(tmp_path / "dir")) == []

    def test_shard_holds_every_event_of_a_long_case(self, tmp_path,
                                                    monkeypatch):
        # The first fig4a dirs160 cell under CoreTime publishes more
        # events than an event log keeps (250,000); its shard must hold
        # each one its case's bus published.
        case = next(case for case in presets.fig4a().expand()
                    if case.scheduler == "coretime"
                    and case.workload_label == "dirs160")
        recorder = ShardRecorder(str(tmp_path), "cell")
        pipelines = []

        def pipeline(make=recorder.pipeline):
            pipelines.append(make())
            return pipelines[-1]

        monkeypatch.setattr(recorder, "pipeline", pipeline)
        record = execute_case_record(case, "test", recorder=recorder)
        recorder.close()
        assert record["status"] == "ok"
        (obs,) = pipelines
        published = obs.bus.published
        assert published > 250_000
        with gzip.open(recorder.events_path, "rt",
                       encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 1 + published   # meta line
        # A run marker opens a profile section; every other event is
        # counted in one.
        profile = load_profile(recorder.profile_path)
        assert profile.total_events + len(profile.sections) == published
