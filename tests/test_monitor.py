"""Tests for repro.core.monitor."""

from repro.core.monitor import Monitor
from repro.core.object_table import CtObject
from repro.cpu.machine import Machine
from repro.mem.counters import CoreCounters, operation_misses

from tests.helpers import tiny_spec


def make_monitor(decay=0.5):
    return Monitor(Machine(tiny_spec()), heat_decay=decay)


def counted(**advance):
    """(expensive, loads) of an operation during which a counter bank
    advanced by ``advance``, as CoreTime counts them."""
    bank = CoreCounters(0)
    entry = bank.snapshot()
    for name, count in advance.items():
        setattr(bank, name, count)
    return operation_misses(bank, entry)


class TestRecordOperation:
    def test_attributes_expensive_misses(self):
        monitor = make_monitor()
        obj = CtObject("o", 0, 4096)
        monitor.record_operation(obj, *counted(remote_hits=3, dram_loads=5),
                                 cycles=100)
        assert obj.ops == 1
        assert obj.expensive_misses == 8
        assert obj.window_expensive_misses == 8
        assert obj.op_cycles == 100

    def test_l1_l2_hits_are_not_expensive(self):
        monitor = make_monitor()
        obj = CtObject("o", 0, 4096)
        monitor.record_operation(obj, *counted(l1_hits=50, l2_hits=20),
                                 cycles=10)
        assert obj.expensive_misses == 0
        assert obj.measured_footprint_lines == 70

    def test_footprint_estimate_is_max_of_op_loads(self):
        monitor = make_monitor()
        obj = CtObject("o", 0, 0)
        monitor.record_operation(obj, 0, 30, 10)
        monitor.record_operation(obj, 0, 10, 10)
        assert obj.measured_footprint_lines == 30

    def test_record_use_counts_without_misses(self):
        monitor = make_monitor()
        obj = CtObject("o", 0, 4096)
        monitor.record_use(obj)
        assert obj.ops == 1
        assert obj.expensive_misses == 0
        assert obj.oid in monitor.tracked


class TestIsExpensive:
    def test_needs_min_samples(self):
        monitor = make_monitor()
        obj = CtObject("o", 0, 4096)
        monitor.record_operation(obj, 100, 100, 10)
        assert not monitor.is_expensive(obj, miss_threshold=8,
                                        min_samples=2)
        monitor.record_operation(obj, 100, 100, 10)
        assert monitor.is_expensive(obj, miss_threshold=8, min_samples=2)

    def test_threshold(self):
        monitor = make_monitor()
        obj = CtObject("o", 0, 4096)
        for _ in range(4):
            monitor.record_operation(obj, 4, 4, 10)
        assert monitor.is_expensive(obj, miss_threshold=4, min_samples=2)
        assert not monitor.is_expensive(obj, miss_threshold=5,
                                        min_samples=2)

    def test_cold_start_burst_washes_out(self):
        """A one-time miss burst must stop qualifying after quiet
        windows — the paper's plateau region depends on it."""
        monitor = make_monitor(decay=0.5)
        obj = CtObject("o", 0, 4096)
        monitor.record_operation(obj, 64, 64, 10)
        monitor.record_operation(obj, 64, 64, 10)
        assert monitor.is_expensive(obj, 8, 2)
        # Quiet windows: plenty of ops, no misses.
        for window in range(4):
            for _ in range(10):
                monitor.record_operation(obj, 0, 64, 10)
            monitor.tick((window + 1) * 1000)
        assert not monitor.is_expensive(obj, 8, 2)


class TestTick:
    def test_heat_tracks_decayed_window_ops(self):
        monitor = make_monitor(decay=0.5)
        obj = CtObject("o", 0, 4096)
        for _ in range(8):
            monitor.record_use(obj)
        monitor.tick(1000)
        assert obj.heat == 4.0          # 8 ops decayed once
        monitor.tick(2000)
        assert obj.heat == 2.0

    def test_sparse_objects_accumulate_samples(self):
        """One op per window converges to 1/(1-decay) samples, so rarely
        accessed but always-missing objects still qualify eventually."""
        monitor = make_monitor(decay=0.5)
        obj = CtObject("o", 0, 4096)
        for window in range(8):
            monitor.tick(window * 1000 + 1)
            monitor.record_operation(obj, 20, 20, 10)
        # Checked before the next tick (as the runtime does): the carry
        # converges to decay/(1-decay) on top of the current window's op.
        assert 1.9 < obj.window_ops < 2.0
        assert monitor.is_expensive(obj, 8, min_samples=1.9)

    def test_core_loads_report_idle_fraction(self):
        machine = Machine(tiny_spec())
        monitor = Monitor(machine)
        machine.memory.counters[0].idle_cycles = 500
        loads = monitor.tick(1000)
        assert loads[0].idle_frac >= 0.5
        assert len(loads) == machine.n_cores

    def test_core_loads_window_ops(self):
        machine = Machine(tiny_spec())
        monitor = Monitor(machine)
        bank = machine.memory.counters[2]
        bank.ops_completed = 7
        bank.dram_loads = 5
        bank.l2_hits = 3
        loads = monitor.tick(1000)
        assert (loads[2].ops, loads[2].dram_loads, loads[2].l2_hits) == \
            (7, 5, 3)
        # Next window starts fresh.
        loads = monitor.tick(2000)
        assert (loads[2].ops, loads[2].dram_loads, loads[2].l2_hits) == \
            (0, 0, 0)

    def test_windows_closed_counter(self):
        monitor = make_monitor()
        monitor.tick(100)
        monitor.tick(200)
        assert monitor.windows_closed == 2


class TestReporting:
    def test_hottest(self):
        monitor = make_monitor()
        a, b = CtObject("a", 0, 64), CtObject("b", 64, 64)
        monitor.record_use(a)
        for _ in range(5):
            monitor.record_use(b)
        monitor.tick(1000)
        assert monitor.hottest(1)[0] is b

    def test_mean_heat_empty(self):
        assert make_monitor().mean_heat() == 0.0
