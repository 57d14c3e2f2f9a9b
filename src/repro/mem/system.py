"""The simulated memory hierarchy.

:class:`MemorySystem` is the single authority over cache contents.  It owns
every cache (per-core L1/L2, per-chip L3), the global sharing directory,
the DRAM controllers and the interconnect, and exposes three operations to
cores:

* :meth:`load` / :meth:`store` — one line, demand access;
* :meth:`scan` — a sequential byte range (a directory search), handled in
  one call per the design's scan-batching decision.

Cache levels are *exclusive*: a line lives in exactly one level of a core's
private hierarchy or in a chip's L3, so aggregate on-chip capacity is the
sum of the levels — matching the paper's arithmetic (16 MB = 4 x 2 MB L3 +
16 x 512 KB L2).  A load inserts the line at L1 and cascades victims
downward (L1 -> L2 -> chip L3 -> dropped); a hit in a lower level moves the
line up and out of that level.

Reads may be satisfied from any remote cache (replicating the line into the
local hierarchy); stores invalidate every remote copy via the sharing
directory.  Both effects — replication eating capacity, invalidation
generating interconnect traffic — are exactly what §1 of the paper blames
for poor implicit on-chip-memory scheduling.

Hot-path layout: per-line lookups run through :meth:`_load_line` and
whole scans through :meth:`_scan`.  A core's L1 and L2 are one
:class:`~repro.mem.cache.PrivateStack` (``stacks``): a private hit
restamps the line at the top of the core's recency stack, and L1's LRU
line drops into L2 by moving the stack's level boundary past it, not by
moving the line.  ``l1s`` and ``l2s`` are per-level views of the stacks.
Both loops work on a per-core tuple of flattened state — counter bank,
stack, level views and capacities, the L3's ordered dict, chip id, L3
holder id — plus the directory's raw line->holders dict, so the hit
paths and the insert cascade make no Python method calls.
:mod:`repro.verify.reference` is a naive model of the same semantics
that the fuzzer checks both loops against.
"""

from __future__ import annotations

from math import exp as _exp
from typing import List, Optional, Tuple

from repro.cpu.topology import MachineSpec
from repro.mem.cache import LRUCache, PrivateStack, StackLevel
from repro.obs.events import CacheEvicted, CacheInvalidated
from repro.mem.counters import CoreCounters
from repro.mem.dram import UTILISATION_CAP, UTILISATION_TAU, Dram
from repro.mem.interconnect import Interconnect
from repro.mem.sharing import SharingDirectory

#: Where a load was satisfied (returned by the internal load path and used
#: by the scan loop's stream-prefetch logic and by tests).
SRC_L1 = 0
SRC_L2 = 1
SRC_L3 = 2
SRC_REMOTE = 3
SRC_DRAM = 4

SOURCE_NAMES = ("L1", "L2", "L3", "REMOTE", "DRAM")


class MemorySystem:
    """All caches, coherence state, interconnect and DRAM of one machine."""

    def __init__(self, spec: MachineSpec) -> None:
        spec.validate()
        self.spec = spec
        self.line_size = spec.line_size
        n_cores = spec.n_cores
        #: Each core's exclusive L1 + L2, one recency stack per core.
        self.stacks: List[PrivateStack] = [
            PrivateStack(spec.l1_lines, spec.l2_lines, c)
            for c in range(n_cores)]
        #: Per-level views of the stacks, with the LRUCache interface.
        self.l1s: List[StackLevel] = [stack.l1 for stack in self.stacks]
        self.l2s: List[StackLevel] = [stack.l2 for stack in self.stacks]
        self.l3s: List[LRUCache] = [
            LRUCache(spec.l3_lines, f"L3.{chip}")
            for chip in range(spec.n_chips)]
        self.directory = SharingDirectory(n_cores)
        self.dram = Dram(spec)
        self.interconnect = Interconnect(spec)
        self.counters: List[CoreCounters] = [
            CoreCounters(c) for c in range(n_cores)]
        # Pre-computed per-core values for the hot path.
        self._chip_of = [spec.chip_of(c) for c in range(n_cores)]
        self._lat_l1 = spec.latency.l1
        self._lat_l2 = spec.latency.l2
        self._lat_l3 = spec.latency.l3
        #: holder id -> chip id, for every valid holder (cores then L3s).
        self._holder_chip: List[int] = (
            [spec.chip_of(c) for c in range(n_cores)]
            + list(range(spec.n_chips)))
        #: chip x chip hop-distance matrix (avoids spec method calls).
        self._dist: List[List[int]] = [
            [spec.chip_distance(a, b) for b in range(spec.n_chips)]
            for a in range(spec.n_chips)]
        #: The directory's raw line -> holder-set dict.  Shared identity
        #: with ``self.directory._holders`` for the lifetime of the
        #: system (``flush_all`` clears it in place).
        self._holders = self.directory._holders
        # Flattened per-core state for the hot path: one tuple per core,
        # unpacked in C once per scan and on every single-line access
        # that misses L1, instead of chasing list-index + attribute
        # chains.
        self._core_state: List[tuple] = []
        for c, stack in enumerate(self.stacks):
            chip = self._chip_of[c]
            l3 = self.l3s[chip]
            self._core_state.append((
                self.counters[c], stack,
                stack.l1, stack.l1.capacity, stack.l2, stack.l2.capacity,
                l3, l3._lines, l3.capacity,
                chip, self.directory.l3_holder(chip)))
        #: Interned (latency, source) results for the fixed-latency
        #: hit levels — no tuple allocation per access.
        self._res_l1 = (self._lat_l1, SRC_L1)
        self._res_l2 = (self._lat_l2, SRC_L2)
        self._res_l3 = (self._lat_l3, SRC_L3)
        # Observability: None until attach_observability(); publish sites
        # gate on it so the un-observed hot path allocates nothing.
        self._bus = None
        # Per-core operation context: the name of the annotated object the
        # core is currently operating on, maintained by the engine only
        # when memory-event capture is on (None otherwise), so miss-level
        # events can be attributed to the object being manipulated.
        self.op_obj: Optional[List[Optional[str]]] = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_observability(self, obs) -> None:
        """Wire this memory system into an ``Observability`` pipeline.

        Per-event publishing (evictions, invalidations) only activates
        when the pipeline opted into memory events (``capture_memory``);
        aggregate statistics are exposed as pull gauges either way.
        """
        if obs is None:
            return
        if obs.capture_memory:
            self._bus = obs.bus
            self.op_obj = [None] * self.spec.n_cores
        else:
            self._bus = None
        registry = obs.metrics
        if registry is None:
            return
        caches = self.l1s + self.l2s + self.l3s
        registry.gauge_fn(
            "mem.cache_evictions",
            lambda: sum(c.evictions for c in caches))
        registry.gauge_fn(
            "mem.dram_lines", lambda: self.dram.total_lines_served)
        registry.gauge_fn(
            "mem.cross_chip_messages", self.interconnect.cross_chip_messages)

    # ------------------------------------------------------------------
    # single-line operations
    # ------------------------------------------------------------------

    def load(self, core_id: int, addr: int, now: int) -> int:
        """Load the line containing ``addr``; return latency in cycles."""
        latency, _ = self._load_line(
            core_id, addr // self.line_size, now, False)
        self.counters[core_id].mem_cycles += latency
        return latency

    def store(self, core_id: int, addr: int, now: int) -> int:
        """Store to the line containing ``addr``; return latency in cycles.

        The line is first brought local (charged like a load), then every
        remote copy is invalidated.  Invalidations happen in parallel on
        real hardware, so we charge the slowest one, not the sum.
        """
        line = addr // self.line_size
        latency, _ = self._load_line(core_id, line, now, False)
        counters = self.counters[core_id]
        counters.stores += 1
        holders = self._holders.get(line)
        others = ([h for h in holders if h != core_id]
                  if holders else None)
        if others:
            my_chip = self._chip_of[core_id]
            holder_chip = self._holder_chip
            invalidate = self.interconnect.invalidate_latency
            worst = 0
            for holder in others:
                self._drop_from_holder(line, holder)
                cost = invalidate(my_chip, holder_chip[holder])
                if cost > worst:
                    worst = cost
            counters.invalidations += len(others)
            latency += worst
            bus = self._bus
            if bus is not None and bus.wants(CacheInvalidated):
                bus.publish(CacheInvalidated(now, core_id, line, len(others),
                                             self.op_obj[core_id]))
        counters.mem_cycles += latency
        return latency

    # ------------------------------------------------------------------
    # batched sequential scan
    # ------------------------------------------------------------------

    def scan(self, core_id: int, addr: int, nbytes: int, now: int,
             per_line_compute: int = 0) -> int:
        """Sequentially read ``[addr, addr + nbytes)``; return total cycles.

        Consecutive DRAM fetches after the first are charged the stream
        (prefetched) latency.  ``per_line_compute`` adds fixed compute per
        line, modelling the entry-compare loop of a directory search.
        """
        if nbytes <= 0:
            return 0
        line_size = self.line_size
        return self._scan(core_id, addr // line_size,
                          (addr + nbytes - 1) // line_size, now,
                          per_line_compute, self._core_state[core_id])

    def _scan(self, core_id: int, first: int, last: int, now: int,
              per_line_compute: int, state: tuple) -> int:
        """Whole-scan inline loop over lines ``first..last``.

        Unrolls :meth:`_load_line` across the scanned range with the
        per-core state, the recency stack's integers, the directory dict,
        the interconnect cost tables and the DRAM controllers all held in
        locals, and with counter increments accumulated outside the loop.
        Mutations — the L1 -> L2 -> L3 victim cascade, holder-set history,
        DRAM demand decay — are performed in exactly the order of the
        per-line path, so counters and event streams stay byte-identical
        to it.  The stack's integers are written back before any event is
        published, so a subscriber never sees a stale boundary.
        """
        (counters, stack, l1, l1_cap, l2, l2_cap, l3, l3d, l3_cap,
         chip, l3_holder) = state
        holders_map = self._holders
        hit1 = self._lat_l1 + per_line_compute
        hit2 = self._lat_l2 + per_line_compute
        hit3 = self._lat_l3 + per_line_compute
        dist = self._dist[chip]
        holder_chips = self._holder_chip
        one_chip = len(dist) == 1
        interconnect = self.interconnect
        remote_cost = interconnect._remote_cost[chip]
        stream_cost = interconnect._stream_cost[chip]
        transfers = interconnect.transfers
        dram = self.dram
        n_chips = dram._n_chips
        raw_base = dram._raw_base[chip]
        raw_stream = dram._raw_stream[chip]
        controllers = dram.controllers
        if one_chip:
            # Single-chip machine: every line's home bank is controller
            # 0 and every holder is distance 0, so the cost tables are
            # scalars and the controller's queueing state can live in
            # locals for the whole scan (written back below) — the
            # arithmetic runs in the exact order of the general branch.
            ctrl = controllers[0]
            ctl_occ = ctrl.occupancy
            ctl_demand = ctrl.demand
            ctl_clock = ctrl.clock
            ctl_lines = 0
            ctl_queued = 0
            rb0 = raw_base[0]
            rs0 = raw_stream[0]
            rc0 = remote_cost[0]
            sc0 = stream_cost[0]
        bus = self._bus
        # Pre-line timestamps are only observable through CacheEvicted
        # (L3 spill) and the DRAM controller clock; when eviction events
        # are off, only the DRAM branches need ``line_now``.
        publishing = bus is not None and bus.wants(CacheEvicted)
        where = stack.where
        where_get = where.get
        slots = stack.slots
        push = slots.append
        limit = stack.limit
        # The stack's integers live in locals for the whole scan (the
        # loop performs every mutation of the stack); ``top`` is the next
        # stamp, i.e. ``len(slots)``.
        edge = stack.edge
        low = stack.low
        n1 = stack.n1
        n2 = stack.n2
        top = len(slots)
        l3_move = l3d.move_to_end
        l3_pop = l3d.popitem
        n3 = len(l3d)
        c1 = c2 = c3 = cr = cd = e1 = e2 = e3 = 0
        total = 0
        stream_run = False
        for line in range(first, last + 1):
            if top >= limit:
                stack.edge = edge
                stack.low = low
                stack.renumber()
                edge = stack.edge
                low = 0
                top = len(slots)
            stamp = where_get(line, -1)
            if stamp >= edge:
                # L1 hit: restamp the line at the top.
                slots[stamp] = None
                where[line] = top
                push(line)
                top += 1
                c1 += 1
                total += hit1
                stream_run = False
                continue
            if stamp >= 0:
                # L2 hit: restamp the line at the top.  If L1 was full,
                # its LRU line takes the freed place in L2.
                slots[stamp] = None
                where[line] = top
                push(line)
                top += 1
                c2 += 1
                total += hit2
                stream_run = False
                if n1 < l1_cap:
                    n1 += 1
                    n2 -= 1
                    continue
                e1 += 1
                while slots[edge] is None:
                    edge += 1
                edge += 1
                continue
            if publishing:
                line_now = now + total
            # One holders probe classifies the line AND feeds the insert
            # cascade below (``grow`` is the set to extend with core_id,
            # or None when a fresh singleton must be created) — the
            # per-line path probes twice, with identical results.
            if line in l3d:
                c3 += 1
                holders = holders_map.get(line)
                if holders is not None and len(holders) > 1:
                    l3_move(line)
                    grow = holders
                else:
                    del l3d[line]
                    n3 -= 1
                    grow = None
                    if holders is not None:
                        holders.discard(l3_holder)
                        if holders:
                            grow = holders
                        else:
                            del holders_map[line]
                total += hit3
                stream_run = False
            elif one_chip:
                holders = holders_map.get(line)
                grow = holders or None
                if holders:
                    # Any holder is distance 0; identity never affects
                    # cost or counters on one chip.
                    cr += 1
                    total += (sc0 if stream_run else rc0) \
                        + per_line_compute
                else:
                    cd += 1
                    line_now = now + total
                    if line_now > ctl_clock:
                        ctl_demand *= _exp(
                            (ctl_clock - line_now) / UTILISATION_TAU)
                        ctl_clock = line_now
                    ctl_demand += ctl_occ
                    rho = ctl_demand / UTILISATION_TAU
                    if rho > UTILISATION_CAP:
                        rho = UTILISATION_CAP
                    queue_delay = int(ctl_occ * rho / (1.0 - rho) * 0.5)
                    ctl_lines += 1
                    ctl_queued += queue_delay
                    total += (queue_delay
                              + (rs0 if stream_run else rb0)
                              + per_line_compute)
                stream_run = True
            else:
                holders = holders_map.get(line)
                holder = None
                if holders:
                    best_d = 1 << 30
                    for h in holders:
                        d = dist[holder_chips[h]]
                        if d < best_d:
                            holder, best_d = h, d
                            if d == 0:
                                break
                grow = holders or None
                if holder is not None:
                    cr += 1
                    hchip = holder_chips[holder]
                    if stream_run:
                        total += stream_cost[hchip] + per_line_compute
                    else:
                        if chip != hchip:
                            key = (hchip, chip)
                            transfers[key] = transfers.get(key, 0) + 1
                        total += remote_cost[hchip] + per_line_compute
                    stream_run = True
                else:
                    cd += 1
                    line_now = now + total
                    bank = line % n_chips
                    controller = controllers[bank]
                    if line_now > controller.clock:
                        controller.demand *= _exp(
                            (controller.clock - line_now) / UTILISATION_TAU)
                        controller.clock = line_now
                    demand = controller.demand + controller.occupancy
                    controller.demand = demand
                    rho = demand / UTILISATION_TAU
                    if rho > UTILISATION_CAP:
                        rho = UTILISATION_CAP
                    queue_delay = int(
                        controller.occupancy * rho / (1.0 - rho) * 0.5)
                    controller.lines_served += 1
                    controller.queued_cycles += queue_delay
                    total += (queue_delay + (raw_stream if stream_run
                                             else raw_base)[bank]
                              + per_line_compute)
                    stream_run = True
            # --- inlined insert cascade ---------------------------------
            if grow is None:
                holders_map[line] = {core_id}
            else:
                grow.add(core_id)
            where[line] = top
            push(line)
            top += 1
            if n1 < l1_cap:
                n1 += 1
                continue
            # L1 was full: its LRU line becomes L2's MRU line in place.
            e1 += 1
            while slots[edge] is None:
                edge += 1
            edge += 1
            if n2 < l2_cap:
                n2 += 1
                continue
            e2 += 1
            while slots[low] is None:
                low += 1
            victim2 = slots[low]
            slots[low] = None
            low += 1
            del where[victim2]
            holders = holders_map.get(victim2)
            if holders is not None:
                holders.discard(core_id)
                if not holders:
                    del holders_map[victim2]
                    holders = None
            if holders is None:
                holders_map[victim2] = {l3_holder}
            else:
                holders.add(l3_holder)
            if victim2 in l3d:
                l3_move(victim2)
                continue
            l3d[victim2] = None
            n3 += 1
            if n3 <= l3_cap:
                continue
            e3 += 1
            n3 -= 1
            victim3 = l3_pop(False)[0]
            holders = holders_map.get(victim3)
            if holders is not None:
                holders.discard(l3_holder)
                if not holders:
                    del holders_map[victim3]
            if publishing:
                stack.edge = edge
                stack.low = low
                stack.n1 = n1
                stack.n2 = n2
                bus.publish(CacheEvicted(line_now, core_id, "L3", victim3,
                                         self.op_obj[core_id]))
        stack.edge = edge
        stack.low = low
        stack.n1 = n1
        stack.n2 = n2
        if one_chip:
            ctrl.demand = ctl_demand
            ctrl.clock = ctl_clock
            ctrl.lines_served += ctl_lines
            ctrl.queued_cycles += ctl_queued
        counters.l1_hits += c1
        counters.l2_hits += c2
        counters.l3_hits += c3
        counters.remote_hits += cr
        counters.dram_loads += cd
        if e1:
            l1.evictions += e1
        if e2:
            l2.evictions += e2
        if e3:
            l3.evictions += e3
        counters.mem_cycles += total
        return total

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------

    def _load_line(self, core_id: int, line: int, now: int,
                   sequential: bool) -> Tuple[int, int]:
        """Load one line for ``core_id``; return (latency, source).

        Operates directly on the core's recency stack, the L3's ordered
        dict and the directory's holder-set dict — the lookup, the hit
        bookkeeping, and the full L1 -> L2 -> L3 victim cascade run inline
        with no method calls short of a renumbering.
        """
        stack = self.stacks[core_id]
        slots = stack.slots
        if len(slots) >= stack.limit:
            stack.renumber()
        where = stack.where
        stamp = where.get(line, -1)
        if stamp >= stack.edge:
            # L1 hit: restamp the line at the top.
            slots[stamp] = None
            where[line] = len(slots)
            slots.append(line)
            self.counters[core_id].l1_hits += 1
            return self._res_l1
        (counters, _, l1, l1_cap, l2, l2_cap, l3, l3d, l3_cap,
         chip, l3_holder) = self._core_state[core_id]
        if stamp >= 0:
            # L2 hit: restamp the line at the top.  If L1 was full, its
            # LRU line takes the freed place in L2.
            counters.l2_hits += 1
            slots[stamp] = None
            where[line] = len(slots)
            slots.append(line)
            if stack.n1 < l1_cap:
                stack.n1 += 1
                stack.n2 -= 1
            else:
                l1.evictions += 1
                edge = stack.edge
                while slots[edge] is None:
                    edge += 1
                stack.edge = edge + 1
            return self._res_l2
        holders_map = self._holders
        if line in l3d:
            # AMD K10's non-inclusive L3: on a hit, keep the L3 copy when
            # the line is shared (other private holders exist), so chip-
            # shared data keeps serving at 75 cycles; hand it over
            # exclusively when this requester is the only interested
            # party, so single-reader data (CoreTime-partitioned objects)
            # does not burn capacity twice.
            counters.l3_hits += 1
            holders = holders_map.get(line)
            if holders is not None and len(holders) > 1:
                l3d.move_to_end(line)
            else:
                del l3d[line]
                if holders is not None:
                    holders.discard(l3_holder)
                    if not holders:
                        del holders_map[line]
            result = self._res_l3
        else:
            # Nearest holder by chip distance (first found on ties).
            holders = holders_map.get(line)
            holder = None
            if holders:
                holder_chips = self._holder_chip
                dist = self._dist[chip]
                best_d = 1 << 30
                for h in holders:
                    d = dist[holder_chips[h]]
                    if d < best_d:
                        holder, best_d = h, d
                        if d == 0:
                            break
            if holder is not None:
                counters.remote_hits += 1
                holder_chip = self._holder_chip[holder]
                if sequential:
                    # A remote fetch continuing a sequential stream is
                    # prefetch-pipelined like a streamed DRAM read.
                    latency = self.interconnect.remote_stream_latency(
                        chip, holder_chip)
                else:
                    latency = self.interconnect.remote_cache_latency(
                        chip, holder_chip)
                # Read-sharing: the remote copy stays put; we replicate.
                result = (latency, SRC_REMOTE)
            else:
                counters.dram_loads += 1
                result = (self.dram.load(line, chip, now, sequential),
                          SRC_DRAM)
        # --- insert at L1, cascading victims downward ------------------
        holders = holders_map.get(line)
        if holders is None:
            holders_map[line] = {core_id}
        else:
            holders.add(core_id)
        # L1 insert (MRU); the cascade below only runs on overflow.
        where[line] = len(slots)
        slots.append(line)
        if stack.n1 < l1_cap:
            stack.n1 += 1
            return result
        # L1 was full: its LRU line becomes L2's MRU line in place.
        l1.evictions += 1
        edge = stack.edge
        while slots[edge] is None:
            edge += 1
        stack.edge = edge + 1
        if stack.n2 < l2_cap:
            stack.n2 += 1
            return result
        l2.evictions += 1
        low = stack.low
        while slots[low] is None:
            low += 1
        victim2 = slots[low]
        slots[low] = None
        stack.low = low + 1
        del where[victim2]
        # Leaving the private hierarchy for the chip's shared L3.  One
        # probe serves both the discard and the add; the mutation history
        # (set emptied -> entry deleted -> fresh set created) is the one
        # _scan replays, keeping holder-set iteration order identical.
        holders = holders_map.get(victim2)
        if holders is not None:
            holders.discard(core_id)
            if not holders:
                del holders_map[victim2]
                holders = None
        if holders is None:
            holders_map[victim2] = {l3_holder}
        else:
            holders.add(l3_holder)
        if victim2 in l3d:
            l3d.move_to_end(victim2)
            return result
        l3d[victim2] = None
        if len(l3d) <= l3_cap:
            return result
        l3.evictions += 1
        victim3 = l3d.popitem(False)[0]
        # Clean drop: DRAM always has the data.
        holders = holders_map.get(victim3)
        if holders is not None:
            holders.discard(l3_holder)
            if not holders:
                del holders_map[victim3]
        bus = self._bus
        if bus is not None and bus.wants(CacheEvicted):
            bus.publish(CacheEvicted(now, core_id, "L3", victim3,
                                     self.op_obj[core_id]))
        return result

    def _drop_from_holder(self, line: int, holder: int) -> None:
        """Remove ``line`` from ``holder``'s caches and the directory."""
        if self.directory.is_l3_holder(holder):
            self.l3s[holder - self.directory.n_cores].remove(line)
        else:
            self.stacks[holder].drop(line)
        self.directory.discard(line, holder)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def flush_all(self) -> None:
        for cache in self.stacks + self.l3s:
            cache.clear()
        # Clear in place: the hot path holds a reference to the
        # directory's holder dict, so the directory object must survive.
        self.directory.clear()
