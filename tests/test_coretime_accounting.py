"""CoreTime's per-operation accounting, checked against a recount.

:class:`Recounter` subclasses the scheduler only to watch it.  Around
each operation it reads the five load counters by name from the core's
counter bank, and it decides on its own whether the operation ran
locally: from the core id and the thread's migration count at
``ct_start`` and at ``ct_end``.  It uses none of the monitor's path (the
entry snapshot, :func:`repro.mem.counters.operation_misses`,
:meth:`repro.threads.thread.SimThread.ran_on`).  Every object the
monitor tracks must then carry the recounted ``ops``,
``expensive_misses``, ``op_cycles`` and ``measured_footprint_lines``.
"""

from repro import (DirectoryLookupWorkload, DirWorkloadSpec, Machine,
                   MachineSpec, Simulator)
from repro.core.coretime import CoreTimeConfig, CoreTimeScheduler
from repro.workloads import scenarios

#: The counters a line load advances, one per source level.
SOURCES = ("l1_hits", "l2_hits", "l3_hits", "remote_hits", "dram_loads")


class Recounter(CoreTimeScheduler):
    def __init__(self) -> None:
        super().__init__(CoreTimeConfig(monitor_interval=50_000))
        #: thread tid -> (core id, migrations, load counts, start).
        self.entries = {}
        #: oid -> [ops, expensive misses, op cycles, footprint].
        self.expected = {}
        self.local = self.migrated = 0

    def on_ct_start(self, thread, obj, core, now):
        counts = [getattr(core.counters, name) for name in SOURCES]
        target = super().on_ct_start(thread, obj, core, now)
        # The operation's clock starts after the table lookup.
        self.entries[thread.tid] = (core.core_id, thread.migrations,
                                    counts, core.time)
        return target

    def on_ct_end(self, thread, core, now):
        entry_core, migrations, counts, started = self.entries.pop(thread.tid)
        row = self.expected.setdefault(thread.ct_object.oid, [0, 0, 0, 0])
        row[0] += 1
        if core.core_id == entry_core and thread.migrations == migrations:
            grew = {name: getattr(core.counters, name) - count
                    for name, count in zip(SOURCES, counts)}
            row[1] += grew["remote_hits"] + grew["dram_loads"]
            row[2] += now - started
            row[3] = max(row[3], sum(grew.values()))
            self.local += 1
        else:
            self.migrated += 1
        return super().on_ct_end(thread, core, now)


def assert_recounted(scheduler):
    tracked = scheduler.monitor.tracked
    assert set(tracked) == set(scheduler.expected)
    for oid, want in scheduler.expected.items():
        obj = tracked[oid]
        got = [obj.ops, obj.expensive_misses, obj.op_cycles,
               obj.measured_footprint_lines]
        assert got == want, obj.name


class TestAccountingRecount:
    def test_pipeline_operations_all_local(self):
        machine = Machine(MachineSpec.tiny())
        scheduler = Recounter()
        sim = Simulator(machine, scheduler)
        scenarios.build(machine, scenarios.ScenarioSpec(
            name="pipeline", seed=3)).spawn_all(sim)
        sim.run(until=400_000)
        assert scheduler.local > 1000
        assert scheduler.migrated == 0
        assert_recounted(scheduler)

    def test_dirlookup_with_migrating_operations(self):
        machine = Machine(MachineSpec.scaled(8))
        scheduler = Recounter()
        sim = Simulator(machine, scheduler)
        DirectoryLookupWorkload(machine, DirWorkloadSpec.scaled(
            8, n_dirs=160, popularity="uniform", seed=3)).spawn_all(sim)
        sim.run(until=600_000)
        assert scheduler.local > 100
        assert scheduler.migrated > 100
        assert_recounted(scheduler)
