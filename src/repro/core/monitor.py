"""Runtime monitoring: what CoreTime learns from event counters.

§4, *Runtime monitoring*: CoreTime counts the cache misses between a pair
of annotations and attributes them to the object being manipulated; many
misses mean the object is expensive to fetch and worth assigning to a
cache.  Per-core counters (idle cycles, DRAM loads, L2 loads) reveal
overloaded cores and overpacked caches.

:class:`Monitor` implements both halves against the simulated counters:

* :meth:`record_operation` takes the expensive misses and loads that
  CoreTime counted across one locally-executed operation
  (:func:`repro.mem.counters.operation_misses`) and updates the object's
  statistics (op count, expensive misses, footprint estimate);
* :meth:`tick` closes a monitoring window — decaying per-object heat and
  producing one :class:`CoreLoad` per core for the rebalancer, from
  counter snapshots (plain tuples) taken at each window's edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.object_table import CtObject
from repro.cpu.machine import Machine
from repro.mem.counters import IDX_DRAM, IDX_IDLE, IDX_L2, IDX_OPS


@dataclass(frozen=True)
class CoreLoad:
    """One core's behaviour over the last monitoring window."""

    core_id: int
    window_cycles: int
    idle_frac: float
    dram_loads: int
    l2_hits: int
    ops: int


class Monitor:
    """Counter-based measurement of objects and cores."""

    def __init__(self, machine: Machine, heat_decay: float = 0.5) -> None:
        self.machine = machine
        self.heat_decay = heat_decay
        #: Every object ever observed (assigned or not).
        self.tracked: Dict[int, CtObject] = {}
        self._window_start: List[Tuple[int, ...]] = [
            bank.snapshot() for bank in machine.memory.counters]
        self._window_started_at = 0
        self.windows_closed = 0
        self.operations_recorded = 0

    # ------------------------------------------------------------------
    # per-operation measurement
    # ------------------------------------------------------------------

    def record_operation(self, obj: CtObject, expensive: int, loads: int,
                         cycles: int) -> None:
        """Attribute one locally-executed operation's misses to ``obj``.

        ``expensive`` counts the operation's misses served beyond the
        chip's caches — remote fetches and DRAM loads — since those are
        what migration can beat (§4: migration pays off only against
        DRAM/remote fetch cost); ``loads`` counts all its line loads.
        """
        self.tracked.setdefault(obj.oid, obj)
        obj.ops += 1
        obj.window_ops += 1
        obj.expensive_misses += expensive
        obj.window_expensive_misses += expensive
        obj.op_cycles += cycles
        # Footprint estimate: an operation that touches N lines bounds the
        # object's active size from below.
        if loads > obj.measured_footprint_lines:
            obj.measured_footprint_lines = loads
        self.operations_recorded += 1

    def record_use(self, obj: CtObject) -> None:
        """Count an operation that ran remotely (no valid miss delta)."""
        self.tracked.setdefault(obj.oid, obj)
        obj.ops += 1
        obj.window_ops += 1
        self.operations_recorded += 1

    def is_expensive(self, obj: CtObject, miss_threshold: float,
                     min_samples: float) -> bool:
        """Does the object deserve a cache assignment?

        Judged on the *current window's* miss rate: an object that missed
        only while caches were cold stops qualifying as soon as a window
        passes without sustained misses, which is what keeps CoreTime
        inert in the regime where the data fits in local caches
        (Figure 4(a), 512 KB–2 MB).
        """
        if obj.window_ops < min_samples:
            return False
        return obj.window_misses_per_op() >= miss_threshold

    # ------------------------------------------------------------------
    # windowed core assessment
    # ------------------------------------------------------------------

    def tick(self, now: int) -> List[CoreLoad]:
        """Close the current window: decay heat, assess every core."""
        machine = self.machine
        loads: List[CoreLoad] = []
        window = max(1, now - self._window_started_at)
        new_start: List[Tuple[int, ...]] = []
        for core_id, bank in enumerate(machine.memory.counters):
            snapshot = bank.snapshot()
            start = self._window_start[core_id]
            # A core idle right now has un-accounted idle time since
            # idle_since; include it so fully-idle cores read as idle.
            idle = snapshot[IDX_IDLE] - start[IDX_IDLE]
            core = machine.cores[core_id]
            if core.idle_since is not None and now > core.idle_since:
                idle += now - max(core.idle_since, self._window_started_at)
            idle_frac = min(1.0, idle / window)
            loads.append(CoreLoad(
                core_id=core_id,
                window_cycles=window,
                idle_frac=idle_frac,
                dram_loads=snapshot[IDX_DRAM] - start[IDX_DRAM],
                l2_hits=snapshot[IDX_L2] - start[IDX_L2],
                ops=snapshot[IDX_OPS] - start[IDX_OPS],
            ))
            new_start.append(snapshot)
        self._window_start = new_start
        self._window_started_at = now
        # Window statistics decay rather than reset, so an object touched
        # once per window still accumulates enough samples to be judged,
        # while stale evidence (cold-start miss bursts) washes out.  Heat
        # is the decayed operation rate — the popularity signal packing
        # and rebalancing sort by.
        decay = self.heat_decay
        for obj in self.tracked.values():
            obj.window_ops *= decay
            obj.window_expensive_misses *= decay
            obj.heat = obj.window_ops
        self.windows_closed += 1
        return loads

    def hottest(self, limit: int = 10) -> List[CtObject]:
        return sorted(self.tracked.values(),
                      key=lambda o: (-o.heat, o.oid))[:limit]

    def mean_heat(self) -> float:
        if not self.tracked:
            return 0.0
        return sum(o.heat for o in self.tracked.values()) / len(self.tracked)
