"""Tests for repro.workloads.webserver."""

import pytest

from repro.cpu.machine import Machine
from repro.errors import ConfigError
from repro.sched import registry
from repro.sim.engine import Simulator
from repro.threads.program import (Acquire, Compute, CtEnd, CtStart,
                                   Release, Store)
from repro.workloads.webserver import WebServerSpec, WebServerWorkload

from tests.helpers import tiny_spec


def tiny_server(**overrides):
    fields = dict(n_dirs=4, files_per_dir=16, content_bytes=256,
                  threads_per_core=1, cluster_bytes=512)
    fields.update(overrides)
    return WebServerSpec(**fields)


class TestConstruction:
    def test_objects_cover_all_tiers(self):
        machine = Machine(tiny_spec())
        workload = WebServerWorkload(machine, tiny_server())
        assert workload.conn_table.name == "conn-table"
        directories = workload.efsl.directories
        assert directories and all(d.object.name.startswith("dir:")
                                   for d in directories)
        assert len(workload.content) == len(directories)
        assert all(obj.name.startswith("content:")
                   for obj in workload.content)

    def test_conn_table_is_writable_object(self):
        machine = Machine(tiny_spec())
        workload = WebServerWorkload(machine, tiny_server())
        assert not workload.conn_table.read_only
        assert all(obj.read_only for obj in workload.content)

    def test_directory_and_content_share_cluster_key(self):
        machine = Machine(tiny_spec())
        workload = WebServerWorkload(machine, tiny_server())
        for directory, content in zip(workload.efsl.directories,
                                      workload.content):
            assert directory.object.cluster_key == content.cluster_key
            assert directory.object.cluster_key is not None

    def test_validation(self):
        with pytest.raises(ConfigError):
            WebServerSpec(n_dirs=0).validate()
        with pytest.raises(ConfigError):
            WebServerSpec(content_bytes=0).validate()

    def test_validation_edge_values(self):
        # The boundary cases on either side of every limit.
        WebServerSpec(n_dirs=1, files_per_dir=1, content_bytes=1,
                      conn_table_bytes=1).validate()
        with pytest.raises(ConfigError):
            WebServerSpec(files_per_dir=0).validate()
        with pytest.raises(ConfigError):
            WebServerSpec(conn_table_bytes=0).validate()
        with pytest.raises(ConfigError):
            WebServerSpec(n_dirs=-3).validate()
        # The workload constructor must enforce the same rules.
        with pytest.raises(ConfigError):
            WebServerWorkload(Machine(tiny_spec()),
                              tiny_server(files_per_dir=0))


class TestRequestStream:
    def test_request_item_sequence(self):
        machine = Machine(tiny_spec())
        workload = WebServerWorkload(machine, tiny_server())
        program = workload.make_program(0)
        items = []
        # One full request = everything up to the second CtStart run of
        # the *next* request; collect generously and inspect the head.
        for _ in range(14):
            items.append(next(program))
        kinds = [type(item) for item in items]
        # Connection op first (bracketed store under the table lock)...
        assert kinds[0] is CtStart
        assert kinds[1] is Acquire
        assert kinds[2] is Store
        assert kinds[3] is Release
        assert kinds[4] is CtEnd
        # ...then parse, then the annotated lookup begins.
        assert kinds[5] is Compute
        assert kinds[6] is CtStart

    def test_end_to_end_under_both_schedulers(self):
        for name in ("thread", "coretime"):
            machine = Machine(tiny_spec())
            sim = Simulator(machine, registry.resolve(name)())
            workload = WebServerWorkload(machine, tiny_server())
            workload.spawn_all(sim)
            sim.run(until=400_000)
            assert workload.requests_served > 0, name

    def test_same_seed_spawn_all_is_deterministic(self):
        def run(seed):
            machine = Machine(tiny_spec())
            sim = Simulator(machine, registry.resolve("coretime")())
            workload = WebServerWorkload(machine,
                                         tiny_server(seed=seed))
            threads = workload.spawn_all(sim)
            names = [thread.name for thread in threads]
            sim.run(until=250_000)
            counters = [bank.snapshot() for bank in machine.memory.counters]
            return names, workload.requests_served, counters

        first = run(seed=21)
        second = run(seed=21)
        assert first == second
        assert first[1] > 0
        # A different seed must actually change the request stream.
        other = run(seed=22)
        assert first[1:] != other[1:]

    def test_stores_hit_connection_table(self):
        machine = Machine(tiny_spec())
        sim = Simulator(machine, registry.resolve("thread")())
        workload = WebServerWorkload(machine, tiny_server())
        workload.spawn_all(sim)
        sim.run(until=200_000)
        stores = sum(machine.memory.counters[c].stores
                     for c in range(machine.n_cores))
        # One table store plus two lock stores per request, per tier.
        assert stores >= workload.requests_served
