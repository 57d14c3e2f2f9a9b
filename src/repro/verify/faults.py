"""Deterministic fault injection.

A :class:`FaultPlan` is the adversary that keeps the invariant checker
honest: attached via ``Simulator(..., faults=plan)`` it corrupts live
simulator state at a chosen point in the event stream, deterministically
(seeded through :func:`repro.sim.rng.make_rng`, so the same plan breaks
the same thing every run).  The mutation self-test
(:func:`repro.verify.fuzz.run_mutation`, ``tests/test_verify_faults.py``)
injects every kind and asserts its matching invariant trips — a checker
rule with no fault that can trip it is a blind spot.

Fault kinds and the invariant expected to catch each:

=================  =========================================  ===========
kind               corruption                                 caught by
=================  =========================================  ===========
drop_migration     remove an in-flight arrival event          migrations
delay_migration    push an arrival event ~1k cycles late      migrations
evict_line         drop a cached line, directory unaware      residency
phantom_holder     set a directory bit for an absent copy     residency
corrupt_counter    negate (or inflate) a counter field        counters
stall_core         flip a core's ``in_heap`` flag             heap
=================  =========================================  ===========

A plan publishes :class:`~repro.obs.events.FaultInjected` (when a bus is
listening) *before* mutating, so the flight recorder shows the injected
fault right next to the violation it provokes.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.mem.counters import COUNTER_FIELDS
from repro.obs.events import FaultInjected
from repro.sim.rng import make_rng

FAULT_KINDS: Tuple[str, ...] = (
    "drop_migration", "delay_migration", "evict_line", "phantom_holder",
    "corrupt_counter", "stall_core",
)

#: The invariant rule each fault kind must trip (mutation self-test).
EXPECTED_RULE = {
    "drop_migration": "migrations",
    "delay_migration": "migrations",
    "evict_line": "residency",
    "phantom_holder": "residency",
    "corrupt_counter": "counters",
    "stall_core": "heap",
}

#: An injector returns (detail, apply) — the mutation prepared but not
#: yet applied — or None when no suitable target exists right now.
_Prepared = Optional[Tuple[str, Callable[[], None]]]


class FaultPlan:
    """A seeded schedule of state corruptions.

    ``seed``      drives every random choice (which arrival to drop,
                  which line to evict, ...);
    ``at_event``  earliest event count at which to inject; if the fault
                  is not applicable there (say, no migration in flight),
                  the plan retries on every following event;
    ``kinds``     candidate fault kinds (default: all); one is picked by
                  the seeded RNG per injection;
    ``count``     how many faults to inject (default 1).
    """

    def __init__(self, seed: int = 0, at_event: int = 200,
                 kinds: Optional[Tuple[str, ...]] = None,
                 count: int = 1) -> None:
        selected = tuple(kinds) if kinds else FAULT_KINDS
        unknown = set(selected) - set(FAULT_KINDS)
        if unknown:
            raise ConfigError(
                f"unknown fault kinds {sorted(unknown)}; "
                f"choose from {list(FAULT_KINDS)}")
        if at_event < 1 or count < 0:
            raise ConfigError("need at_event >= 1 and count >= 0")
        self.seed = seed
        self.at_event = at_event
        self.kinds = selected
        self.count = count
        #: (kind, ts, detail) per fault actually applied.
        self.injected: List[Tuple[str, int, str]] = []
        self._rng = None
        self._events = 0

    @classmethod
    def single(cls, kind: str, at_event: int = 200,
               seed: int = 0) -> "FaultPlan":
        """One fault of exactly ``kind`` (mutation self-tests)."""
        return cls(seed=seed, at_event=at_event, kinds=(kind,))

    # ------------------------------------------------------------------
    # engine attachment
    # ------------------------------------------------------------------

    def bind(self, sim: Any) -> None:
        """Attach to a simulator (called from ``Simulator.__init__``)."""
        self._rng = make_rng(self.seed, "faults")
        self._events = 0
        self.injected = []

    def after_event(self, sim: Any, now: int) -> None:
        """Called by the engine after every processed event."""
        if len(self.injected) >= self.count:
            return
        self._events += 1
        if self._events < self.at_event:
            return
        rng = self._rng
        kind = (self.kinds[0] if len(self.kinds) == 1
                else self.kinds[rng.randrange(len(self.kinds))])
        prepared: _Prepared = getattr(self, "_inject_" + kind)(sim, rng)
        if prepared is None:
            return  # nothing to break yet; retry on the next event
        detail, apply = prepared
        bus = sim._bus
        if bus is not None and bus.wants(FaultInjected):
            bus.publish(FaultInjected(now, kind, detail))
        apply()
        self.injected.append((kind, now, detail))

    # ------------------------------------------------------------------
    # injectors
    # ------------------------------------------------------------------

    def _inject_drop_migration(self, sim: Any, rng: Any) -> _Prepared:
        from repro.sim.engine import _KIND_ARRIVAL
        heap = sim._heap
        arrivals = [entry for entry in heap if entry[2] == _KIND_ARRIVAL]
        if not arrivals:
            return None
        entry = arrivals[rng.randrange(len(arrivals))]
        thread = entry[3][0]
        detail = (f"dropped in-flight arrival of {thread.name} "
                  f"(was due t={entry[0]})")

        def apply() -> None:
            heap.remove(entry)
            heapq.heapify(heap)

        return detail, apply

    def _inject_delay_migration(self, sim: Any, rng: Any) -> _Prepared:
        from repro.sim.engine import _KIND_ARRIVAL
        heap = sim._heap
        arrivals = [entry for entry in heap if entry[2] == _KIND_ARRIVAL]
        if not arrivals:
            return None
        entry = arrivals[rng.randrange(len(arrivals))]
        delay = 1000 + rng.randrange(1000)
        thread = entry[3][0]
        detail = (f"delayed arrival of {thread.name} by {delay} cycles "
                  f"(t={entry[0]} -> {entry[0] + delay}) without telling "
                  f"the engine")

        def apply() -> None:
            heap.remove(entry)
            heap.append((entry[0] + delay,) + entry[1:])
            heapq.heapify(heap)

        return detail, apply

    def _inject_evict_line(self, sim: Any, rng: Any) -> _Prepared:
        memory = sim.memory
        caches = [cache for cache
                  in memory.l1s + memory.l2s + memory.l3s if len(cache)]
        if not caches:
            return None
        cache = caches[rng.randrange(len(caches))]
        lines = sorted(cache.lines())
        line = lines[rng.randrange(len(lines))]
        detail = (f"evicted line {line} from {cache.cache_id} behind the "
                  f"sharing directory's back")

        def apply() -> None:
            cache.remove(line)

        return detail, apply

    def _inject_phantom_holder(self, sim: Any, rng: Any) -> _Prepared:
        memory = sim.memory
        holders = memory.directory._holders
        if not holders:
            return None
        lines = sorted(holders)
        line = lines[rng.randrange(len(lines))]
        n_holders = memory.spec.n_cores + memory.spec.n_chips
        absent = [holder for holder in range(n_holders)
                  if not holders[line] >> holder & 1]
        if not absent:
            return None
        holder = absent[rng.randrange(len(absent))]
        detail = (f"set holder {holder}'s bit for line {line} in the "
                  f"sharing directory; no cache of that holder has it")

        def apply() -> None:
            holders[line] |= 1 << holder

        return detail, apply

    def _inject_corrupt_counter(self, sim: Any, rng: Any) -> _Prepared:
        banks = sim.memory.counters
        bank = banks[rng.randrange(len(banks))]
        nonzero = [field for field in COUNTER_FIELDS
                   if getattr(bank, field) > 0]
        if nonzero:
            field = nonzero[rng.randrange(len(nonzero))]
            value = getattr(bank, field)
            detail = (f"negated core {bank.core_id} counter "
                      f"{field} ({value} -> {-(value + 1)})")

            def apply() -> None:
                setattr(bank, field, -(value + 1))
        else:
            detail = f"inflated core {bank.core_id} ops_completed by 1000"

            def apply() -> None:
                bank.ops_completed += 1000

        return detail, apply

    def _inject_stall_core(self, sim: Any, rng: Any) -> _Prepared:
        cores = sim.machine.cores
        core = cores[rng.randrange(len(cores))]
        detail = (f"flipped core {core.core_id} in_heap flag "
                  f"({core.in_heap} -> {not core.in_heap})")

        def apply() -> None:
            core.in_heap = not core.in_heap

        return detail, apply

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, at_event={self.at_event}, "
                f"kinds={list(self.kinds)}, injected={len(self.injected)})")
