"""A deliberately naive reference model of the memory hierarchy.

:class:`ReferenceMemory` restates the semantics documented in
:mod:`repro.mem.system` (with the cost models of :mod:`repro.mem.dram`
and :mod:`repro.mem.interconnect`) in the plainest code that implements
them, sharing no structure with the production path: every cache is a
plain list of lines in LRU order, there is no sharing directory (a
line's holders are found by looking in every cache), and hop costs and
DRAM queueing are recomputed from the
:class:`~repro.cpu.topology.MachineSpec` on every access.

:func:`shadow` makes a live :class:`~repro.mem.system.MemorySystem`
replay every ``load`` / ``store`` / ``scan`` on a fresh model and raise
:class:`ReferenceMismatch` the moment the two charge different
latencies; :func:`compare` checks the end state, the interconnect's
traffic link by link included.
"""

from __future__ import annotations

from math import exp
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cpu.topology import MachineSpec
from repro.errors import ConfigError, SimulationError
from repro.mem.dram import UTILISATION_CAP, UTILISATION_TAU

#: The per-core counters the memory system owns (the engine owns the rest).
MEMORY_COUNTERS = ("l1_hits", "l2_hits", "l3_hits", "remote_hits",
                   "dram_loads", "stores", "invalidations", "mem_cycles")

#: The counter each place a load can be satisfied from increments.
SOURCE_COUNTER = {"l1": "l1_hits", "l2": "l2_hits", "l3": "l3_hits",
                  "remote": "remote_hits", "dram": "dram_loads"}

#: DRAM-controller state compared by :func:`compare`.
CONTROLLER_FIELDS = ("clock", "demand", "lines_served", "queued_cycles")


class ReferenceMismatch(SimulationError):
    """The memory system and the reference model disagree."""


class ListCache:
    """One cache: its lines in LRU order (LRU first), and its evictions."""

    def __init__(self, cache_id: str, capacity: int) -> None:
        self.cache_id = cache_id
        self.capacity = capacity
        self.lines: List[int] = []
        self.evictions = 0

    def remove(self, line: int) -> None:
        if line in self.lines:
            self.lines.remove(line)

    def insert(self, line: int) -> Optional[int]:
        """Make ``line`` most recently used; return the line this evicts."""
        self.remove(line)
        self.lines.append(line)
        if len(self.lines) <= self.capacity:
            return None
        self.evictions += 1
        return self.lines.pop(0)


#: (holder id, chip, the holder's caches) — see :meth:`ReferenceMemory.holders`.
Holder = Tuple[int, int, Tuple[ListCache, ...]]

#: (source chip, destination chip) -> messages carried on that link.
Links = Dict[Tuple[int, int], int]


def count(links: Links, src: int, dst: int) -> None:
    """One more message on the ``src`` -> ``dst`` link."""
    links[src, dst] = links.get((src, dst), 0) + 1


class ReferenceMemory:
    """Naive model of :class:`~repro.mem.system.MemorySystem`."""

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        cores, chips = range(spec.n_cores), range(spec.n_chips)
        self.l1 = [ListCache(f"L1.{core}", spec.l1_lines) for core in cores]
        self.l2 = [ListCache(f"L2.{core}", spec.l2_lines) for core in cores]
        self.l3 = [ListCache(f"L3.{chip}", spec.l3_lines) for chip in chips]
        self.counters = [dict.fromkeys(MEMORY_COUNTERS, 0) for _ in cores]
        self.controllers = [dict(clock=0, demand=0.0, lines_served=0,
                                 queued_cycles=0) for _ in chips]
        #: Cross-chip line transfers, per (serving chip, requesting chip).
        self.transfers: Links = {}
        #: Cross-chip invalidations, per (writer's chip, holder's chip).
        self.invalidations: Links = {}

    def load(self, core: int, addr: int, now: int) -> int:
        latency, _ = self.load_line(core, addr // self.spec.line_size, now,
                                    False)
        self.counters[core]["mem_cycles"] += latency
        return latency

    def store(self, core: int, addr: int, now: int) -> int:
        """Load the line, then invalidate every other copy; the copies are
        invalidated in parallel, so the slowest one is charged."""
        spec = self.spec
        line = addr // spec.line_size
        latency, _ = self.load_line(core, line, now, False)
        others = [(chip, caches) for holder, chip, caches
                  in self.holders(line) if holder != core]
        worst = 0
        my_chip = spec.chip_of(core)
        for chip, caches in others:
            for cache in caches:
                cache.remove(line)
            hops = spec.chip_distance(my_chip, chip)
            if hops:
                count(self.invalidations, my_chip, chip)
            worst = max(worst, spec.latency.invalidate
                        + spec.latency.remote_hop * hops)
        counters = self.counters[core]
        counters["stores"] += 1
        counters["invalidations"] += len(others)
        counters["mem_cycles"] += latency + worst
        return latency + worst

    def scan(self, core: int, addr: int, nbytes: int, now: int,
             per_line_compute: int = 0) -> int:
        """Load every line of ``[addr, addr + nbytes)`` in order.  A line
        fetched from a remote cache or DRAM right after another one is
        charged the stream rate."""
        if nbytes <= 0:
            return 0
        size = self.spec.line_size
        total = 0
        streaming = False
        for line in range(addr // size, (addr + nbytes - 1) // size + 1):
            latency, source = self.load_line(core, line, now + total,
                                             streaming)
            total += latency + per_line_compute
            streaming = source in ("remote", "dram")
        self.counters[core]["mem_cycles"] += total
        return total

    def load_line(self, core: int, line: int, now: int,
                  streaming: bool) -> Tuple[int, str]:
        """Load one line for ``core``; return (latency, where it was)."""
        spec = self.spec
        lat = spec.latency
        counters = self.counters[core]
        chip = spec.chip_of(core)
        l1, l2, l3 = self.l1[core], self.l2[core], self.l3[chip]
        if line in l1.lines:
            latency, source = lat.l1, "l1"
        elif line in l2.lines:
            l2.remove(line)
            latency, source = lat.l2, "l2"
        elif line in l3.lines:
            # The L3 keeps a copy someone else also holds and hands a
            # private one over.
            if len(self.holders(line)) > 1:
                l3.insert(line)
            else:
                l3.remove(line)
            latency, source = lat.l3, "l3"
        else:
            # The nearest holder serves, the lowest id among equally near
            # ones.
            found = [(spec.chip_distance(chip, holder_chip), holder,
                      holder_chip)
                     for holder, holder_chip, _ in self.holders(line)]
            if found:
                hops, _, server_chip = min(found)
                if streaming:
                    latency = lat.remote_stream + lat.remote_hop * hops // 3
                else:
                    latency = lat.remote_same_chip + lat.remote_hop * hops
                if hops:
                    count(self.transfers, server_chip, chip)
                source = "remote"
            else:
                latency, source = self.dram(line, chip, now, streaming), "dram"
        counters[SOURCE_COUNTER[source]] += 1
        # Insert at L1, cascading victims L1 -> L2 -> chip L3 -> dropped.
        victim = l1.insert(line)
        if victim is not None:
            victim = l2.insert(victim)
        if victim is not None:
            l3.insert(victim)
        return latency, source

    def dram(self, line: int, chip: int, now: int, streaming: bool) -> int:
        """Fetch ``line`` from its home bank (lines interleave across
        chips) through that bank's queueing controller."""
        spec = self.spec
        lat = spec.latency
        bank = line % spec.n_chips
        controller = self.controllers[bank]
        if now > controller["clock"]:
            controller["demand"] *= exp(
                (controller["clock"] - now) / UTILISATION_TAU)
            controller["clock"] = now
        controller["demand"] += lat.dram_occupancy
        rho = min(controller["demand"] / UTILISATION_TAU, UTILISATION_CAP)
        queued = int(lat.dram_occupancy * rho / (1.0 - rho) * 0.5)
        controller["lines_served"] += 1
        controller["queued_cycles"] += queued
        base = lat.dram_stream if streaming else lat.dram_base
        return queued + base + lat.dram_hop * spec.chip_distance(chip, bank)

    def holders(self, line: int) -> List[Holder]:
        """(holder id, chip, caches) of every private hierarchy and L3
        holding ``line``, found by looking in every cache.  Holder ids are
        numbered as in :mod:`repro.mem.sharing`: the core id, or
        ``n_cores + chip`` for an L3."""
        spec = self.spec
        found = [(core, spec.chip_of(core), (l1, l2))
                 for core, (l1, l2) in enumerate(zip(self.l1, self.l2))
                 if line in l1.lines or line in l2.lines]
        return found + [(spec.n_cores + chip, chip, (l3,))
                        for chip, l3 in enumerate(self.l3)
                        if line in l3.lines]


def shadow(memory: Any) -> ReferenceMemory:
    """Check every ``load`` / ``store`` / ``scan`` of ``memory`` against
    a fresh :class:`ReferenceMemory`, which is returned.

    The three entry points are rebound on the instance, so this must run
    before a :class:`~repro.sim.engine.Simulator` captures them, and on a
    memory system no access has touched yet.
    """
    if len(memory.directory) or any(bank.mem_cycles
                                    for bank in memory.counters):
        raise ConfigError("shadow() needs an untouched memory system")
    model = ReferenceMemory(memory.spec)
    for name in ("load", "store", "scan"):
        setattr(memory, name, _checked(name, getattr(memory, name),
                                       getattr(model, name)))
    memory.reference = model
    return model


def _checked(name: str, real: Callable[..., int],
             model: Callable[..., int]) -> Callable[..., int]:
    def checked(*args: int, **kwargs: int) -> int:
        got = real(*args, **kwargs)
        want = model(*args, **kwargs)
        if got != want:
            raise ReferenceMismatch(
                f"{name}{args}{kwargs or ''}: memory system charged {got} "
                f"cycles, reference model {want}")
        return got
    return checked


def compare(memory: Any) -> None:
    """Raise :class:`ReferenceMismatch` unless the end state of a
    :func:`shadow`-ed ``memory`` matches its model: the memory-owned
    counters, every cache's lines in LRU order and eviction count, each
    DRAM controller's state, the interconnect's transfers and
    invalidations on every link, and the sharing directory against the
    caches' contents."""
    model = getattr(memory, "reference", None)
    if model is None:
        raise ConfigError("compare() needs a memory system from shadow()")
    diffs: List[str] = []

    def check(what: str, got: Any, want: Any) -> None:
        if got != want:
            diffs.append(f"{what}: {got!r:.80} != reference {want!r:.80}")

    for core, (bank, ref) in enumerate(zip(memory.counters, model.counters)):
        for name in MEMORY_COUNTERS:
            check(f"core {core} {name}", getattr(bank, name), ref[name])
    for cache, ref in zip(memory.l1s + memory.l2s + memory.l3s,
                          model.l1 + model.l2 + model.l3):
        check(f"{cache.cache_id} lines", list(cache.lines()), ref.lines)
        check(f"{cache.cache_id} evictions", cache.evictions, ref.evictions)
    for chip, (controller, ref) in enumerate(
            zip(memory.dram.controllers, model.controllers)):
        for name in CONTROLLER_FIELDS:
            check(f"DRAM {chip} {name}", getattr(controller, name), ref[name])
    interconnect = memory.interconnect
    for name in ("transfers", "invalidations"):
        got, want = getattr(interconnect, name), getattr(model, name)
        for src, dst in sorted(got.keys() | want.keys()):
            check(f"{name} {src}->{dst}", got.get((src, dst), 0),
                  want.get((src, dst), 0))
    recorded = dict(memory.directory.items())
    derived = {line: {holder for holder, _, _ in model.holders(line)}
               for cache in model.l1 + model.l2 + model.l3
               for line in cache.lines}
    for line in sorted(recorded.keys() | derived.keys()):
        check(f"line {line} holders", sorted(recorded.get(line, ())),
              sorted(derived.get(line, ())))
    if diffs:
        raise ReferenceMismatch(
            f"end state differs from the reference model in {len(diffs)} "
            f"place(s): " + "; ".join(diffs[:5]))
