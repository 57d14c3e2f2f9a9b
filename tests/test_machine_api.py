"""Tests for repro.cpu.machine, repro.core.api and report helpers."""

import os

from repro.core.api import ct_object, method_operation, operation
from repro.core.object_table import CtObject
from repro.threads.program import Compute, CtEnd, CtStart, Scan



class TestMachine:
    def test_assembly_matches_spec(self, machine):
        assert machine.n_cores == 4
        assert len(machine.memory.l3s) == 2
        assert machine.cores[3].chip_id == 1

    def test_cores_of_chip(self, machine):
        chip1 = machine.cores_of_chip(1)
        assert [core.core_id for core in chip1] == [2, 3]

    def test_now_is_max_core_clock(self, machine):
        machine.cores[2].time = 500
        assert machine.now == 500

    def test_counters_shared_with_memory(self, machine):
        assert machine.cores[1].counters is machine.memory.counters[1]

    def test_settle_idle(self, machine):
        machine.cores[0].time = 100
        machine.settle_idle(1000)
        # Born idle, settled through the horizon.
        assert machine.cores[0].counters.idle_cycles >= 900

    def test_repr(self, machine):
        assert "2 chips x 2 cores" in repr(machine)


class TestAnnotationApi:
    def test_ct_object_fields(self):
        obj = ct_object("tbl", 0x1000, 256, read_only=True,
                        cluster_key="grp")
        assert isinstance(obj, CtObject)
        assert obj.addr == 0x1000
        assert obj.read_only
        assert obj.cluster_key == "grp"

    def test_operation_brackets_body(self):
        obj = ct_object("o", 0, 64)
        items = list(operation(obj, [Scan(0, 64), Compute(5)]))
        assert isinstance(items[0], CtStart)
        assert items[0].obj is obj
        assert isinstance(items[-1], CtEnd)
        assert len(items) == 4

    def test_operation_with_generator_body(self):
        obj = ct_object("o", 0, 64)
        def body():
            yield Compute(1)
        items = list(operation(obj, body()))
        assert len(items) == 3

    def test_method_operation_alias(self):
        assert method_operation is operation


class TestSaveReport:
    def test_writes_under_results_dir(self, tmp_path, monkeypatch):
        import repro.bench.report as report_module
        monkeypatch.setattr(report_module, "RESULTS_DIR", str(tmp_path))
        path = report_module.save_report("unit", "hello")
        assert os.path.exists(path)
        with open(path) as handle:
            assert handle.read() == "hello\n"
