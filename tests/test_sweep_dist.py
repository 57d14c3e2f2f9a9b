"""Tests for repro.sweep.dist: framing, leases, coordinator, TCP e2e.

The coordinator's state machine is tested synchronously — stub channels,
a fake clock, direct ``_handle``/``_tick`` calls — because that is the
design contract: all decisions are made by plain sync methods, the event
loop only moves frames.  The end-to-end classes then prove the wire
path: byte-identical records across serial vs TCP execution, and a
worker killed mid-run losing no cells.
"""

import json
import os
import socket
import struct
import subprocess
import sys
import threading

import pytest

from repro.errors import ConfigError
from repro.obs import Observability
from repro.sweep.dist.coordinator import Coordinator, Seq
from repro.sweep.dist.lease import LeaseTable
from repro.sweep.dist.protocol import (MAX_FRAME_BYTES, ProtocolError,
                                       encode_frame, recv_frame,
                                       send_frame)
from repro.sweep.dist.transport import (Channel, TcpTransport, Transport,
                                        connect, parse_address)
from repro.sweep.dist.worker import work_loop
from repro.sweep.runner import RunnerOptions, SweepOutcome, run_sweep
from repro.sweep.spec import code_fingerprint
from repro.sweep.store import ResultStore

from tests.test_sweep import quick_options, tiny_sweep


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"type": "lease", "key": "k", "n": 3,
                       "nested": {"x": [1, 2]}}
            send_frame(a, message)
            assert recv_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_encoding_is_deterministic(self):
        assert encode_frame({"b": 1, "a": 2}) \
            == encode_frame({"a": 2, "b": 1})

    def test_eof_reads_as_none(self):
        a, b = socket.socketpair()
        a.close()
        assert recv_frame(b) is None
        b.close()

    def test_partial_frame_reads_as_none(self):
        a, b = socket.socketpair()
        a.sendall(encode_frame({"type": "hello"})[:7])   # torn mid-frame
        a.close()
        assert recv_frame(b) is None
        b.close()

    def test_oversized_announcement_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            payload = json.dumps([1, 2]).encode()
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address("host:123") == ("host", 123)
        with pytest.raises(ConfigError):
            parse_address("no-port")
        with pytest.raises(ConfigError):
            parse_address("host:xyz")


# ---------------------------------------------------------------------------
# the lease table (fake clock)
# ---------------------------------------------------------------------------

class TestLeaseTable:
    def test_grant_release_contains(self):
        table = LeaseTable(10.0, clock=FakeClock())
        lease = table.grant("k1", "w1", attempt=1)
        assert "k1" in table and len(table) == 1
        assert lease.attempt == 1 and lease.worker == "w1"
        assert table.release("k1") is lease
        assert "k1" not in table and table.release("k1") is None

    def test_double_grant_rejected(self):
        table = LeaseTable(10.0, clock=FakeClock())
        table.grant("k1", "w1", 1)
        with pytest.raises(ValueError):
            table.grant("k1", "w2", 1)

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            LeaseTable(0.0)

    def test_expiry_removes_in_grant_order(self):
        clock = FakeClock()
        table = LeaseTable(5.0, clock=clock)
        table.grant("k2", "w1", 1)
        table.grant("k1", "w2", 1)
        clock.advance(6.0)
        dead = table.expired()
        assert [lease.key for lease in dead] == ["k2", "k1"]   # grant order
        assert len(table) == 0

    def test_heartbeat_renewal_defers_expiry(self):
        clock = FakeClock()
        table = LeaseTable(5.0, clock=clock)
        table.grant("k1", "w1", 1)
        table.grant("k2", "w2", 1)
        clock.advance(4.0)
        assert table.renew_worker("w1") == 1
        clock.advance(2.0)                     # w2 silent 6s, w1 only 2s
        assert [lease.key for lease in table.expired()] == ["k2"]
        assert "k1" in table

    def test_overdue_does_not_remove(self):
        clock = FakeClock()
        table = LeaseTable(60.0, clock=clock)
        table.grant("k1", "w1", 1)
        clock.advance(10.0)
        table.renew_worker("w1")               # heartbeats keep it fresh
        assert [lease.key for lease in table.overdue(5.0)] == ["k1"]
        assert "k1" in table                   # caller decides the kill

    def test_worker_leases_in_grant_order(self):
        table = LeaseTable(10.0, clock=FakeClock())
        table.grant("k3", "w1", 1)
        table.grant("k2", "w2", 1)
        table.grant("k1", "w1", 2)
        assert [lease.key for lease in table.worker_leases("w1")] \
            == ["k3", "k1"]


# ---------------------------------------------------------------------------
# coordinator state machine (stub channels, no event loop)
# ---------------------------------------------------------------------------

class StubChannel(Channel):
    def __init__(self, name="stub"):
        self._name = name
        self.sent = []
        self.closed = False
        self.killed = False

    @property
    def peer(self):
        return self._name

    def send(self, message):
        self.sent.append(message)

    def close(self):
        self.closed = True

    def kill(self):
        self.killed = True
        self.closed = True

    def last(self):
        return self.sent[-1]


class StubTransport(Transport):
    name = "stub"

    def __init__(self):
        self.kicked = []
        self.replenished = 0

    def kick(self, channel):
        channel.kill()
        self.kicked.append(channel)

    def replenish(self):
        self.replenished += 1


class Harness:
    """A coordinator wired to recording callbacks and a fake clock."""

    def __init__(self, n_cases=2, obs=None, store=None, **option_fields):
        spec = tiny_sweep(n_seeds=1)
        cases = spec.expand()[:n_cases]
        self.todo = [(case, case.key()) for case in cases]
        self.keys = [key for _, key in self.todo]
        fields = dict(workers=0, lease_ttl_s=10.0, retries=1)
        fields.update(option_fields)
        self.options = RunnerOptions(**fields)
        self.clock = FakeClock()
        self.transport = StubTransport()
        self.outcome = SweepOutcome(
            records={key: None for key in self.keys})
        self.announced = []
        self.finalized = []

        def announce(case, key):
            self.announced.append(key)

        def finalize(case, key, record, elapsed, attempt):
            self.outcome.records[key] = record
            self.outcome.computed += 1
            if record["status"] == "failed":
                self.outcome.failed += 1
            self.finalized.append((key, record["status"], attempt))

        self.coordinator = Coordinator(
            self.todo, self.transport, self.options, "fp",
            announce=announce, finalize=finalize, outcome=self.outcome,
            obs=obs, store=store, seq=Seq(), clock=self.clock)
        if obs is not None:
            obs.bus.subscribe(self.coordinator._broadcast)

    def join(self, name, fingerprint=None):
        channel = StubChannel(name)
        self.coordinator._handle(channel, {
            "type": "hello", "worker": name, "fingerprint": fingerprint})
        return channel

    def request(self, channel):
        self.coordinator._handle(channel, {"type": "request"})
        return channel.last()

    def result(self, channel, key, status="ok"):
        record = {"record_version": 1, "case_key": key,
                  "fingerprint": "fp", "status": status,
                  "point": {"kops_per_sec": 1.0}, "error": None}
        self.coordinator._handle(channel, {
            "type": "result", "key": key, "record": record})


class TestCoordinator:
    def test_handshake_and_grant_cycle(self):
        h = Harness(n_cases=2)
        w1 = h.join("w1")
        assert w1.last()["type"] == "welcome"
        assert w1.last()["ttl_s"] == 10.0
        lease = h.request(w1)
        assert lease["type"] == "lease"
        assert lease["key"] == h.keys[0]
        assert lease["fingerprint"] == "fp"
        assert h.announced == [h.keys[0]]
        w2 = h.join("w2")
        assert h.request(w2)["key"] == h.keys[1]
        assert h.request(h.join("w3"))["type"] == "wait"  # all leased
        h.result(w1, h.keys[0])
        h.result(w2, h.keys[1])
        assert h.request(w1)["type"] == "drain"
        assert h.coordinator._finished()
        assert h.outcome.computed == 2 and not h.outcome.failed

    def test_fingerprint_mismatch_rejected(self):
        h = Harness()
        channel = h.join("other-tree", fingerprint="deadbeef")
        assert channel.last()["type"] == "reject"
        assert "fingerprint" in channel.last()["reason"]
        assert channel.closed
        assert "other-tree" not in h.coordinator.workers

    def test_duplicate_name_rejected(self):
        h = Harness()
        h.join("w1")
        dupe = h.join("w1")
        assert dupe.last()["type"] == "reject"
        assert dupe.closed

    def test_ttl_expiry_requeues_in_grant_order(self):
        obs = Observability(metrics=False, flight=0)
        h = Harness(n_cases=2, obs=obs, lease_ttl_s=5.0)
        w1, w2 = h.join("w1"), h.join("w2")
        h.request(w1)
        h.request(w2)
        h.clock.advance(6.0)
        h.coordinator._tick()
        # Both leases expired and requeued at the deque front; each
        # appendleft in grant order leaves the batch front-first
        # reversed — the order is what must be deterministic.
        assert [key for _, key in h.coordinator.pending] \
            == [h.keys[1], h.keys[0]]
        assert len(h.coordinator.leases) == 0
        kinds = [event.kind for event in obs.events()]
        assert kinds.count("lease_expired") == 2
        expiries = [event for event in obs.events()
                    if event.kind == "lease_expired"]
        assert {event.reason for event in expiries} == {"expired"}
        # Re-grant is attempt 2.
        regrant = h.request(w1)
        assert regrant["key"] == h.keys[1]
        assert h.coordinator.leases.get(h.keys[1]).attempt == 2

    def test_heartbeat_keeps_lease_alive(self):
        h = Harness(lease_ttl_s=5.0)
        w1 = h.join("w1")
        h.request(w1)
        for _ in range(3):
            h.clock.advance(4.0)
            h.coordinator._handle(w1, {"type": "heartbeat"})
            h.coordinator._tick()
        assert len(h.coordinator.leases) == 1     # 12s wall, still held

    def test_retry_budget_exhaustion_records_failure(self):
        h = Harness(n_cases=1, lease_ttl_s=5.0, retries=0)
        w1 = h.join("w1")
        h.request(w1)
        h.clock.advance(6.0)
        h.coordinator._tick()
        assert h.finalized == [(h.keys[0], "failed", 1)]
        record = h.outcome.records[h.keys[0]]
        assert "lease expired" in record["error"]
        assert h.coordinator._finished()

    def test_timeout_kicks_worker_and_retries(self):
        h = Harness(n_cases=1, lease_ttl_s=100.0, timeout_s=5.0,
                    retries=1)
        w1 = h.join("w1")
        h.request(w1)
        h.clock.advance(3.0)
        h.coordinator._handle(w1, {"type": "heartbeat"})
        h.clock.advance(3.0)                      # 6s old, but heartbeating
        h.coordinator._tick()
        assert w1.killed and h.transport.kicked == [w1]
        assert len(h.coordinator.pending) == 1    # requeued
        w2 = h.join("w2")
        h.request(w2)
        h.clock.advance(6.0)
        h.coordinator._tick()                     # attempt 2 also times out
        assert h.finalized == [(h.keys[0], "failed", 2)]
        assert "timeout after 5s" in h.outcome.records[h.keys[0]]["error"]

    def test_worker_lost_reclaims_and_replenishes(self):
        obs = Observability(metrics=False, flight=0)
        h = Harness(n_cases=2, obs=obs)
        w1 = h.join("w1")
        h.request(w1)
        h.coordinator._on_disconnect(w1)
        assert "w1" not in h.coordinator.workers
        assert len(h.coordinator.pending) == 2    # lease reclaimed
        assert h.transport.replenished == 1
        kinds = [event.kind for event in obs.events()]
        assert "worker_join" in kinds and "worker_lost" in kinds
        lost = next(event for event in obs.events()
                    if event.kind == "worker_lost")
        assert lost.worker == "w1" and lost.leases == 1
        expiry = next(event for event in obs.events()
                      if event.kind == "lease_expired")
        assert expiry.reason == "worker lost"

    def test_clean_departure_reclaims_nothing(self):
        h = Harness(n_cases=1)
        w1 = h.join("w1")
        h.request(w1)
        h.result(w1, h.keys[0])
        h.coordinator._on_disconnect(w1)          # left holding no lease
        assert not h.coordinator.pending
        assert h.transport.replenished == 0
        assert h.coordinator._finished()

    def test_duplicate_result_is_idempotent(self):
        h = Harness(n_cases=1)
        w1 = h.join("w1")
        h.request(w1)
        h.result(w1, h.keys[0])
        h.result(w1, h.keys[0])                   # replayed frame
        assert h.outcome.computed == 1
        assert len(h.finalized) == 1

    def test_late_result_from_presumed_dead_worker_accepted(self):
        h = Harness(n_cases=1, lease_ttl_s=5.0)
        w1 = h.join("w1")
        h.request(w1)
        h.clock.advance(6.0)
        h.coordinator._tick()                     # expired + requeued
        assert len(h.coordinator.pending) == 1
        h.result(w1, h.keys[0])                   # ...but it delivers
        assert not h.coordinator.pending          # taken back off the queue
        assert h.outcome.computed == 1
        assert h.coordinator._finished()

    def test_stop_after_gates_grants(self):
        h = Harness(n_cases=2, stop_after=1)
        w1, w2 = h.join("w1"), h.join("w2")
        assert h.request(w1)["type"] == "lease"
        assert h.request(w2)["type"] == "wait"    # computed+leased >= 1
        h.result(w1, h.keys[0])
        assert h.request(w1)["type"] == "drain"
        assert h.coordinator._finished()
        assert len(h.coordinator.pending) == 1    # cell left for resume

    def test_status_payload_counts(self):
        h = Harness(n_cases=2)
        w1 = h.join("w1")
        h.request(w1)
        status = h.coordinator.status_payload()
        assert status["total"] == 2 and status["done"] == 0
        assert status["pending"] == 1 and status["leased"] == 1
        assert status["workers"]["w1"]["leases"] == 1
        probe = StubChannel("probe")
        h.coordinator._handle(probe, {"type": "status"})
        assert probe.last()["type"] == "status" and probe.closed

    def test_watch_receives_meta_then_events(self):
        obs = Observability(metrics=False, flight=0)
        h = Harness(n_cases=1, obs=obs)
        watcher = StubChannel("watcher")
        h.coordinator._handle(watcher, {"type": "watch"})
        assert watcher.sent[0]["type"] == "meta"
        assert watcher.sent[0]["schema_version"] == 5
        h.join("w1")
        frames = [frame for frame in watcher.sent
                  if frame["type"] == "event"]
        assert frames and frames[-1]["event"]["kind"] == "worker_join"
        h.coordinator._on_disconnect(watcher)
        assert watcher not in h.coordinator.watchers


# ---------------------------------------------------------------------------
# end to end over real TCP (workers in threads)
# ---------------------------------------------------------------------------

def _tcp_worker(transport, name, **hooks):
    transport.bound.wait(10)
    channel = connect(f"127.0.0.1:{transport.port}")
    work_loop(channel, name, fingerprint=code_fingerprint(), **hooks)


class TestTcpEndToEnd:
    def test_tcp_records_byte_identical_to_serial(self, tmp_path):
        spec = tiny_sweep(n_seeds=1)
        serial_store = ResultStore(tmp_path / "serial").create(spec)
        tcp_store = ResultStore(tmp_path / "tcp").create(spec)
        with serial_store:
            run_sweep(spec, serial_store, quick_options())
        transport = TcpTransport("127.0.0.1", 0)
        threads = [threading.Thread(target=_tcp_worker,
                                    args=(transport, f"t{i}"),
                                    daemon=True)
                   for i in range(2)]
        for thread in threads:
            thread.start()
        with tcp_store:
            outcome = run_sweep(spec, tcp_store, quick_options(),
                                transport=transport)
        for thread in threads:
            thread.join(timeout=10)
        assert outcome.computed == 4 and outcome.failed == 0
        for case in spec.expand():
            name = f"{case.key()}.json"
            assert (serial_store.cases_dir / name).read_bytes() \
                == (tcp_store.cases_dir / name).read_bytes(), \
                case.describe()

    def test_killed_worker_loses_no_cells(self, tmp_path):
        spec = tiny_sweep(n_seeds=1)
        store = ResultStore(tmp_path / "sw").create(spec)
        obs = Observability(metrics=False, flight=0)
        transport = TcpTransport("127.0.0.1", 0)

        def chaos():
            # A worker takes one lease and vanishes without a word...
            transport.bound.wait(10)
            address = f"127.0.0.1:{transport.port}"
            greedy = connect(address)
            greedy.send({"type": "hello", "worker": "greedy",
                         "fingerprint": None})
            assert greedy.recv()["type"] == "welcome"
            greedy.send({"type": "request", "worker": "greedy"})
            assert greedy.recv()["type"] == "lease"
            greedy.close()
            # ...then an honest worker finishes the whole grid.
            work_loop(connect(address), "steady",
                      fingerprint=code_fingerprint())

        thread = threading.Thread(target=chaos, daemon=True)
        thread.start()
        with store:
            outcome = run_sweep(spec, store, quick_options(), obs=obs,
                                transport=transport)
        thread.join(timeout=30)
        assert outcome.computed == 4 and outcome.failed == 0
        assert outcome.remaining == 0
        kinds = [event.kind for event in obs.events()]
        assert "worker_lost" in kinds and "lease_expired" in kinds
        journal_events = [entry["event"]
                          for entry in store.journal_entries()]
        assert "lease_expired" in journal_events
        expiry = next(entry for entry in store.journal_entries()
                      if entry["event"] == "lease_expired")
        assert expiry["worker"] == "greedy"
        assert expiry["reason"] == "worker lost"

    def test_max_cases_worker_churn_completes(self, tmp_path):
        # Three workers that each quit after one case: the sweep must
        # ride out the churn (4 cells, serial tail served by the last).
        spec = tiny_sweep(n_seeds=1)
        store = ResultStore(tmp_path / "sw").create(spec)
        transport = TcpTransport("127.0.0.1", 0)

        def churn():
            transport.bound.wait(10)
            address = f"127.0.0.1:{transport.port}"
            for i in range(3):
                work_loop(connect(address), f"brief-{i}",
                          fingerprint=code_fingerprint(), max_cases=1)
            work_loop(connect(address), "closer",
                      fingerprint=code_fingerprint())

        thread = threading.Thread(target=churn, daemon=True)
        thread.start()
        with store:
            outcome = run_sweep(spec, store, quick_options(),
                                transport=transport)
        thread.join(timeout=30)
        assert outcome.computed == 4 and outcome.failed == 0


# ---------------------------------------------------------------------------
# the CLI, end to end (subprocesses, loopback TCP)
# ---------------------------------------------------------------------------

def _cli(args, **kwargs):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.sweep.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, **kwargs)


class TestServeWorkCli:
    def test_serve_survives_crashed_worker(self, tmp_path):
        out = str(tmp_path / "sw")
        serve = _cli(["serve", "smoke", "--seeds", "1", "--out", out,
                      "--port", "0", "--ttl", "10", "--quiet"])
        try:
            banner = serve.stdout.readline()
            assert "serving smoke on " in banner
            address = banner.strip().rsplit(" ", 1)[-1]

            # First worker computes one case, then crashes holding its
            # second lease (os._exit while leased).
            crasher = _cli(["work", "--connect", address,
                            "--name", "crasher", "--fail-after", "1",
                            "--quiet"])
            assert crasher.wait(timeout=120) == 9

            steady = _cli(["work", "--connect", address,
                           "--name", "steady", "--quiet"])
            assert steady.wait(timeout=120) == 0
            assert serve.wait(timeout=120) == 0
        finally:
            for process in (serve,):
                if process.poll() is None:
                    process.kill()

        journal_path = os.path.join(out, "journal.jsonl")
        events = [json.loads(line)["event"]
                  for line in open(journal_path, encoding="utf-8")]
        assert "worker_lost" in events
        assert "lease_expired" in events
        # Every cell completed despite the crash.
        status = _cli(["status", out])
        assert status.wait(timeout=60) == 0

    def test_work_refuses_unreachable_coordinator(self):
        worker = _cli(["work", "--connect", "127.0.0.1:1",
                       "--quiet"])
        assert worker.wait(timeout=60) == 1

    def test_serve_builds_no_event_for_an_unwatched_sweep(self, tmp_path,
                                                          monkeypatch):
        # The coordinator's bus feeds the watch stream and nothing else:
        # no event log subscribes, so with no watcher attached no sweep
        # event is built, let alone kept.
        import repro.sweep.dist.transport as transport_module
        from repro.obs import SweepCaseStarted
        from repro.sweep import cli

        served = []

        def run_sweep_stub(spec, store, options, obs=None, **kwargs):
            served.append(obs)
            return SweepOutcome(records={})

        monkeypatch.setattr(cli, "run_sweep", run_sweep_stub)
        monkeypatch.setattr(transport_module, "TcpTransport",
                            lambda *args, **kwargs: None)
        assert cli.main(["serve", "smoke", "--seeds", "1", "--port", "0",
                         "--out", str(tmp_path / "out"), "--quiet"]) == 0
        (obs,) = served
        assert obs.log is None
        assert not obs.bus.wants(SweepCaseStarted)
