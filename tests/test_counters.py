"""Tests for repro.mem.counters."""

from repro.mem.counters import (COUNTER_FIELDS, CoreCounters, aggregate,
                                operation_misses)

#: The five line-load sources, as a core's counter bank names them.
SOURCES = ("l1_hits", "l2_hits", "l3_hits", "remote_hits", "dram_loads")


class TestCoreCounters:
    def test_starts_at_zero(self):
        counters = CoreCounters(0)
        for field in COUNTER_FIELDS:
            assert getattr(counters, field) == 0

    def test_loads_sums_all_sources(self):
        counters = CoreCounters(0)
        entry = counters.snapshot()
        counters.l1_hits = 10
        counters.l2_hits = 5
        counters.l3_hits = 3
        counters.remote_hits = 2
        counters.dram_loads = 1
        # A store's line load counts at its source; the store is not one.
        counters.stores = 4
        assert operation_misses(counters, entry) == (3, 21)

    def test_snapshot_covers_all_fields(self):
        counters = CoreCounters(0)
        for value, field in enumerate(COUNTER_FIELDS, start=1):
            setattr(counters, field, value)
        assert counters.snapshot() == tuple(
            range(1, len(COUNTER_FIELDS) + 1))


class TestSnapshots:
    def test_snapshot_is_immutable_copy(self):
        counters = CoreCounters(0)
        counters.l1_hits = 1
        snap = counters.snapshot()
        counters.l1_hits = 100
        assert snap[COUNTER_FIELDS.index("l1_hits")] == 1

    def test_delta_arithmetic(self):
        # Every source counter starts nonzero, so each must be
        # subtracted from its own entry value.
        counters = CoreCounters(0)
        for start, field in enumerate(SOURCES, start=1):
            setattr(counters, field, 100 * start)
        before = counters.snapshot()
        for grow, field in enumerate(SOURCES, start=1):
            setattr(counters, field, getattr(counters, field) + grow)
        expensive, loads = operation_misses(counters, before)
        assert expensive == 4 + 5       # remote + DRAM
        assert loads == 1 + 2 + 3 + 4 + 5

    def test_delta_derived_fields(self):
        counters = CoreCounters(0)
        before = counters.snapshot()
        counters.l1_hits = 4
        counters.dram_loads = 2
        assert operation_misses(counters, before) == (2, 6)


class TestAggregate:
    def test_sums_across_cores(self):
        banks = [CoreCounters(i) for i in range(3)]
        for i, bank in enumerate(banks):
            bank.ops_completed = i + 1
        totals = aggregate(banks)
        assert totals["ops_completed"] == 6

    def test_empty(self):
        assert aggregate([])["l1_hits"] == 0
