"""Pathology detection and object rebalancing.

§4: *"Cache packing might assign several popular objects to a single core
and threads will stall waiting to operate on the objects… Our current
solution is to detect performance pathologies at runtime and to improve
performance by rearranging objects."* and *"If a core is rarely idle or
often loads from DRAM, CoreTime will periodically move a portion of the
objects from that core's cache to the cache of a core that has more idle
cycles."*

:class:`Rebalancer` implements that loop over the :class:`CoreLoad`
assessments produced by the monitor.  The move selection sheds *excess*
operation load: from each overloaded core it moves the largest-heat
objects that fit within the excess, to the idlest cores with cache budget,
so a single dominant object is not pointlessly bounced around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.monitor import CoreLoad
from repro.core.object_table import CtObject, ObjectTable
from repro.core.packing import CacheBudget


@dataclass
class RebalanceEvent:
    """One object move, for tracing and tests."""

    obj_name: str
    from_core: int
    to_core: int
    heat: float


class Rebalancer:
    """Moves objects from overloaded cores to idle ones."""

    def __init__(self, overload_idle_frac: float = 0.05,
                 underload_idle_frac: float = 0.25,
                 dram_overload_loads: int = 1 << 30,
                 slack: float = 0.25) -> None:
        #: A core with idle fraction below this is overloaded.
        self.overload_idle_frac = overload_idle_frac
        #: A core with idle fraction above this can take more work.
        self.underload_idle_frac = underload_idle_frac
        #: A core issuing more DRAM loads than this per window is
        #: overloaded regardless of idleness (overpacked cache).
        self.dram_overload_loads = dram_overload_loads
        #: Tolerated relative deviation from mean load before moving.
        self.slack = slack
        self.moves = 0
        self.invocations = 0
        self.history: List[RebalanceEvent] = []
        self._c_moves = None
        self._c_rounds = None

    # ------------------------------------------------------------------

    def attach_metrics(self, registry) -> None:
        """Register push counters on an observability metrics registry."""
        self._c_moves = registry.counter("rebalance.moves")
        self._c_rounds = registry.counter("rebalance.rounds")

    def rebalance(self, loads: Sequence[CoreLoad], table: ObjectTable,
                  budgets: Sequence[CacheBudget],
                  line_size: int) -> List[RebalanceEvent]:
        """One rebalancing pass; returns the moves performed."""
        self.invocations += 1
        if not loads:
            return []
        mean_ops = sum(load.ops for load in loads) / len(loads)
        if mean_ops <= 0:
            return []
        by_core: Dict[int, CacheBudget] = {b.core_id: b for b in budgets}
        overloaded = [
            load for load in loads
            if (load.idle_frac <= self.overload_idle_frac
                or load.dram_loads >= self.dram_overload_loads)
            and load.ops > mean_ops * (1.0 + self.slack)
        ]
        receivers = sorted(
            (load for load in loads
             if load.idle_frac >= self.underload_idle_frac
             and load.ops < mean_ops * (1.0 - self.slack)),
            key=lambda load: -load.idle_frac)
        if not overloaded or not receivers:
            return []
        events: List[RebalanceEvent] = []
        # Mutable view of receiver headroom in "window ops" units.
        headroom = {load.core_id: mean_ops - load.ops for load in receivers}
        for load in sorted(overloaded, key=lambda l: -l.ops):
            excess = load.ops - mean_ops
            objects = sorted(table.objects_on(load.core_id),
                             key=lambda o: (-o.heat, o.oid))
            for obj in objects:
                if excess <= 0:
                    break
                if len(objects) <= 1:
                    break  # never strip a core bare
                obj_load = obj.heat
                if obj_load > excess and obj_load >= mean_ops:
                    # A dominant object: it alone exceeds the average
                    # core load, so moving it only moves the hot spot.
                    # Leave it; the run queue serialises it.
                    continue
                target = self._pick_target(
                    receivers, headroom, by_core, obj, line_size)
                if target is None:
                    continue
                table.move(obj, load.core_id, target)
                size = obj.footprint_bytes(line_size)
                by_core[load.core_id].refund(size)
                by_core[target].charge(size)
                headroom[target] -= obj_load
                excess -= obj_load
                event = RebalanceEvent(obj.name, load.core_id, target,
                                       obj.heat)
                events.append(event)
                self.moves += 1
        self.history.extend(events)
        if len(self.history) > 10000:
            del self.history[:5000]
        if events and self._c_moves is not None:
            self._c_moves.inc(len(events))
            self._c_rounds.inc()
        return events

    def _pick_target(self, receivers: Sequence[CoreLoad],
                     headroom: Dict[int, float],
                     budgets: Dict[int, CacheBudget],
                     obj: CtObject, line_size: int):
        size = obj.footprint_bytes(line_size)
        for load in receivers:
            if headroom[load.core_id] <= 0:
                continue
            if budgets[load.core_id].fits(size):
                return load.core_id
        # No receiver has budget: accept the best-effort idlest receiver
        # with remaining headroom (its cache will overflow to DRAM, but
        # cores stop stalling — matching the paper's priority of balance).
        for load in receivers:
            if headroom[load.core_id] > 0:
                return load.core_id
        return None
