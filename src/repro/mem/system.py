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
for poor implicit on-chip-memory scheduling.  A remote read is served by
the nearest holder, and among equally near holders by the lowest holder
id; hop cost depends only on distance, so the tie-break decides only
which link ``Interconnect.transfers`` counts.

Hot-path layout: per-line lookups run through :meth:`_load_line` and
whole scans through :meth:`_scan`.  A core's L1 and L2 are one
:class:`~repro.mem.cache.PrivateStack` (``stacks``) of runs, consecutive
lines with consecutive stamps: a private hit moves the line to the top of
the core's recency stack, a scan moves each run it covers there in one
step and enters each stretch of lines it misses there in one step, and
L1's LRU line drops into L2 by moving the stack's level boundary past
it, not by moving the line.  ``l1s`` and ``l2s`` are
per-level views of the stacks.  A line is found by one probe of the
stack's run index when it starts a run, and a line that is not the core's
shows as a clear bit in its holder mask.  Both loops work on a per-core
tuple of flattened state — counter bank, stack, level views and
capacities, the L3's ordered dict, chip id, the core's and its L3's
holder bits, the chip's rings of equally distant holders and its link
keys — plus the directory's raw line -> holder-mask dict.  On a private
miss one mask probe tells an L3 hit (the chip's L3 bit is set), a remote
hit (the first ring that intersects the mask serves) and a DRAM fetch
(no bit set) apart; in a scan the same probe ends a stretch of misses at
a line the core holds.  Each change of a line's holders is one dict store
of an int, so the hit paths and the insert cascade make no Python method
calls short of cutting a run.

Each memory cost has one owner.  Chip-to-chip costs come from rows this
class builds once from the hop distance: a remote read takes its cost
and the link it counts on from the ring that serves it (every read from
another chip counts on its link, a streamed one in a scan included), and
:meth:`store` reads one (cost, link) entry per invalidated holder from
its chip's invalidation row; :class:`~repro.mem.interconnect.Interconnect`
only counts the messages.  A DRAM fetch is one
:meth:`Dram.load <repro.mem.dram.Dram.load>` call in both loops, so only
:mod:`repro.mem.dram` knows the bank interleave, the raw latencies, the
stream discount and the queueing.  :mod:`repro.verify.reference` is a
naive model of the same semantics that the fuzzer checks both loops
against.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.topology import MachineSpec
from repro.mem.cache import LRUCache, PrivateStack, Run, StackLevel
from repro.obs.events import CacheEvicted, CacheInvalidated
from repro.mem.counters import CoreCounters
from repro.mem.dram import Dram
from repro.mem.interconnect import Interconnect
from repro.mem.sharing import SharingDirectory


#: Allocates a :class:`Run` without running its ``__init__``.
new_run = object.__new__


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
        self.interconnect = Interconnect()
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
        #: The directory's raw line -> holder-mask dict, the same object
        #: as ``self.directory._holders`` for the lifetime of the system.
        self._holders = self.directory._holders
        #: Per requesting chip, its rings: one (holder mask, remote cost,
        #: stream cost, link keys) per hop distance, nearest first.  A
        #: ring's mask has the bit of every holder at that distance; link
        #: keys (None on the chip itself) map a serving holder id to its
        #: ``Interconnect.transfers`` key.
        n_chips = spec.n_chips
        chip_bits = [1 << self.directory.l3_holder(chip)
                     for chip in range(n_chips)]
        for core, chip in enumerate(self._chip_of):
            chip_bits[chip] |= 1 << core
        # Chip-to-chip costs depend only on the hop distance.
        latency = spec.latency
        hop = latency.remote_hop
        rings: List[tuple] = []
        chip_links: List[tuple] = []
        #: Per writing chip, its invalidation row: one (cost, link key or
        #: None on the writer's own chip) per holder id, the key naming
        #: the ``Interconnect.invalidations`` entry the message counts on.
        self._inval_rows: List[tuple] = []
        for chip in range(n_chips):
            keys = [(other, chip) for other in range(n_chips)]
            links = tuple(keys[hchip] for hchip in self._holder_chip)
            chip_links.append(links)
            by_distance: dict = {}
            for other in range(n_chips):
                distance = spec.chip_distance(chip, other)
                by_distance[distance] = (by_distance.get(distance, 0)
                                         | chip_bits[other])
            rings.append(tuple(
                (bits, latency.remote_same_chip + hop * distance,
                 latency.remote_stream + hop * distance // 3,
                 links if distance else None)
                for distance, bits in sorted(by_distance.items())))
            self._inval_rows.append(tuple(
                (latency.invalidate + hop * spec.chip_distance(chip, hchip),
                 (chip, hchip) if hchip != chip else None)
                for hchip in self._holder_chip))
        # Flattened per-core state for the hot path: one tuple per core,
        # unpacked in C once per scan and on every single-line private
        # miss, instead of chasing list-index + attribute chains.  Its
        # last entry maps a holder id to the link its reads to this chip
        # count on.
        self._core_state: List[tuple] = []
        for c, stack in enumerate(self.stacks):
            chip = self._chip_of[c]
            l3 = self.l3s[chip]
            self._core_state.append((
                self.counters[c], stack,
                stack.l1, stack.l1.capacity, stack.l2, stack.l2.capacity,
                l3, l3._lines, l3.capacity,
                chip, 1 << c, 1 << self.directory.l3_holder(chip),
                rings[chip], chip_links[chip]))
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
        latency = self._load_line(core_id, addr // self.line_size, now)
        self.counters[core_id].mem_cycles += latency
        return latency

    def store(self, core_id: int, addr: int, now: int) -> int:
        """Store to the line containing ``addr``; return latency in cycles.

        The line is first brought local (charged like a load), then every
        other copy is invalidated, in ascending holder id, leaving the
        writer the line's only holder.  Invalidations happen in parallel
        on real hardware, so we charge the slowest one, not the sum.
        """
        line = addr // self.line_size
        latency = self._load_line(core_id, line, now)
        counters = self.counters[core_id]
        counters.stores += 1
        holders_map = self._holders
        bit = 1 << core_id
        others = holders_map[line] & ~bit
        if others:
            holders_map[line] = bit
            row = self._inval_rows[self._chip_of[core_id]]
            invalidations = self.interconnect.invalidations
            n_cores = self.spec.n_cores
            worst = 0
            count = 0
            while others:
                low = others & -others
                others ^= low
                holder = low.bit_length() - 1
                count += 1
                if holder < n_cores:
                    self.stacks[holder].drop(line)
                else:
                    self.l3s[holder - n_cores].remove(line)
                cost, key = row[holder]
                if key is not None:
                    invalidations[key] = invalidations.get(key, 0) + 1
                if cost > worst:
                    worst = cost
            counters.invalidations += count
            latency += worst
            bus = self._bus
            if bus is not None and bus.wants(CacheInvalidated):
                bus.publish(CacheInvalidated(now, core_id, line, count,
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
        """Whole-scan loop over lines ``first..last``, stretch by stretch.

        A stretch is either the lines of one run of the core's recency
        stack (private hits, consecutive in address and in stamp) or
        consecutive lines the core does not hold (private misses).  A hit
        stretch is folded into counters, latency and boundary moves in
        closed form and moves to the top of the stack as part of this
        scan's run.  A miss stretch is probed, charged and entered in the
        directory and the L3 line by line, each line's L2 victim with it,
        in the order of a line-by-line walk, so counters, the L3's order
        and event streams stay byte-identical to one.  The stack takes the
        stretch once: the scan's run grows by it, the boundary passes the
        demoted lines and the victims leave the oldest runs, run by run.
        A stretch is settled, and the stack's integers and the
        interconnect ledger written back, before an event is published,
        so a subscriber never sees a stale boundary.
        """
        (counters, stack, l1, l1_cap, l2, l2_cap, l3, l3d, l3_cap,
         chip, bit, l3_bit, rings, links) = state
        holders_map = self._holders
        holders_get = holders_map.get
        runs = stack.runs
        runs_get = runs.get
        run = runs_get(first)
        if run is None and holders_get(first, 0) & bit:
            # The scan starts inside a run; every later line that a run
            # holds is the first line of its run.
            run = stack.cut(first)
        # AND-masks that clear this core's bit and its L3's bit.
        keep = ~bit
        keep3 = ~l3_bit
        hit1 = self._lat_l1 + per_line_compute
        hit2 = self._lat_l2 + per_line_compute
        hit3 = self._lat_l3 + per_line_compute
        dram_load = self.dram.load
        bus = self._bus
        # ``line_now``, the time a missed line's fetch starts, only stamps
        # CacheEvicted (L3 spill), so it is kept only while eviction
        # events are published.
        publishing = bus is not None and bus.wants(CacheEvicted)
        # The L3 eviction that ended a miss stretch, published once the
        # stack is settled.
        pending = None
        # Cross-chip remote reads per serving holder's bit, added to the
        # interconnect ledger once per scan.
        served: dict = {}
        served_get = served.get
        # The stack's state lives in locals for the whole scan (the loop
        # performs every mutation of the stack).  ``mine`` is this
        # scan's run: the lines it has read, newest at the top.
        head = stack.head
        edge = stack.edge
        erun = stack.erun
        n1 = stack.n1
        n2 = stack.n2
        top = stack.top
        mine = None
        # A miss stretch takes its L2 victims from the oldest runs without
        # changing them: line ``vline`` of ``vrun`` is the next victim
        # unless it lies past ``vhi``, that run's last line (``head``
        # before the first victim).  At most ``span`` misses make one
        # stretch, so its victims are all lines it found in the stack.
        vrun = head
        vline = 0
        vhi = -1
        span = l1_cap + l2_cap
        l3_move = l3d.move_to_end
        l3_pop = l3d.popitem
        n3 = len(l3d)
        c1 = c2 = c3 = cr = cd = e1 = e2 = e3 = 0
        total = 0
        stream_run = False
        line = first
        while True:
            if run is not None:
                # Private hits on lines line..end of ``run``, oldest
                # first; ``low`` of them lie below the boundary.
                d = run.d
                end = run.hi
                if end > last:
                    end = last
                n = end - line + 1
                low = edge - line - d
                demote = 0
                if low <= 0:
                    c1 += n
                    total += n * hit1
                else:
                    if low > n:
                        low = n
                    room = l1_cap - n1
                    if low <= room:
                        # Each L2 hit fills a free place in L1.
                        c1 += n - low
                        c2 += low
                        total += (n - low) * hit1 + low * hit2
                        n1 += low
                        n2 -= low
                    else:
                        # Once L1 is full, each L2 hit demotes L1's LRU
                        # line.  The first demotions take this stretch's
                        # own L1 lines before the scan reaches them, so
                        # every line of the stretch is an L2 hit; the
                        # ``low - room`` demotions left over go past it.
                        c2 += n
                        total += n * hit2
                        e1 += n - room
                        n1 = l1_cap
                        n2 -= room
                        demote = low - room
                stream_run = False
                # The stretch leaves ``run`` for the top of the stack; a
                # run read to its end becomes this scan's run itself.
                if end == run.hi:
                    older = run.older
                    newer = run.newer
                    older.newer = newer
                    newer.older = older
                    if erun is run:
                        erun = newer
                    if mine is None:
                        mine = run
                        run.d = top - line
                        newest = head.older
                        run.older = newest
                        run.newer = head
                        newest.newer = run
                        head.older = run
                        if erun is head:
                            erun = run
                    else:
                        del runs[line]
                        mine.hi = end
                else:
                    run.lo = end + 1
                    runs[end + 1] = run
                    if mine is None:
                        newest = head.older
                        mine = Run(line, end, top - line, newest, head)
                        newest.newer = mine
                        head.older = mine
                        runs[line] = mine
                        if erun is head:
                            erun = mine
                    else:
                        del runs[line]
                        mine.hi = end
                line = end + 1
            else:
                # Private misses from ``line`` on, until a line the core
                # holds (after the stack is settled, the first line of
                # its run), the end of the range or ``span`` lines.  The
                # lines from ``spill`` on find L1 and L2 full: each one's
                # L2 victim leaves for the chip's L3.
                start = line
                stop = start + span
                if stop > last:
                    stop = last + 1
                room = l1_cap - n1
                spill = start + room + l2_cap - n2
                for line in range(start, stop):
                    # One mask probe tells a held line, which ends the
                    # stretch, and classifies a miss; one store records
                    # this core as a holder.
                    mask = holders_get(line, 0)
                    if mask & bit:
                        break
                    if publishing:
                        line_now = now + total
                    if mask & l3_bit:
                        c3 += 1
                        if mask & (mask - 1):
                            l3_move(line)
                            holders_map[line] = mask | bit
                        else:
                            del l3d[line]
                            n3 -= 1
                            holders_map[line] = bit
                        total += hit3
                        stream_run = False
                    elif mask:
                        # Served by the first ring holding a copy: the
                        # nearest holders, and among them the lowest id.
                        # A line from another chip counts on its link,
                        # streamed or not.
                        for ring, cost, stream, remote in rings:
                            if mask & ring:
                                break
                        cr += 1
                        if remote is not None:
                            near = mask & ring
                            near &= -near
                            served[near] = served_get(near, 0) + 1
                        if stream_run:
                            total += stream + per_line_compute
                        else:
                            total += cost + per_line_compute
                        stream_run = True
                        holders_map[line] = mask | bit
                    else:
                        cd += 1
                        total += (dram_load(line, chip, now + total,
                                            stream_run)
                                  + per_line_compute)
                        stream_run = True
                        holders_map[line] = bit
                    if line < spill:
                        continue
                    # The stack's oldest line leaves it for the chip's L3.
                    if vline > vhi:
                        vrun = vrun.newer
                        vline = vrun.lo
                        vhi = vrun.hi
                    victim2 = vline
                    vline += 1
                    mask = holders_map[victim2]
                    holders_map[victim2] = mask & keep | l3_bit
                    if mask & l3_bit:
                        l3_move(victim2)
                        continue
                    l3d[victim2] = None
                    n3 += 1
                    if n3 <= l3_cap:
                        continue
                    e3 += 1
                    n3 -= 1
                    victim3 = l3_pop(False)[0]
                    mask = holders_map[victim3] & keep3
                    if mask:
                        holders_map[victim3] = mask
                    else:
                        del holders_map[victim3]
                    if publishing:
                        pending = CacheEvicted(line_now, core_id, "L3",
                                               victim3, self.op_obj[core_id])
                        line += 1
                        break
                else:
                    line = stop
                # The stack takes the stretch: the scan's run grows by
                # it, L1 and L2 fill their free places and L1's oldest
                # lines are demoted.
                n = line - start
                if mine is None:
                    newest = head.older
                    mine = Run(start, line - 1, top - start, newest, head)
                    newest.newer = mine
                    head.older = mine
                    runs[start] = mine
                    if erun is head:
                        erun = mine
                else:
                    mine.hi = line - 1
                demote = n - room
                if demote <= 0:
                    n1 += n
                    demote = 0
                else:
                    e1 += demote
                    n1 = l1_cap
                    n2 += demote
                    if n2 > l2_cap:
                        e2 += n2 - l2_cap
                        n2 = l2_cap
            top += n
            while demote:
                # Move the boundary past ``demote`` lines, run by run.
                stamp = erun.lo + erun.d
                if stamp < edge:
                    stamp = edge
                above = erun.hi + erun.d + 1
                if stamp + demote < above:
                    edge = stamp + demote
                    break
                demote -= above - stamp
                edge = above
                erun = erun.newer
            if vrun is not head:
                # The stretch's victims leave the oldest runs: every line
                # of the runs older than ``vrun``, and ``vrun``'s lines
                # below ``vline``.  A removed run drops its link to the
                # next one, so removed runs make no reference cycle and
                # are freed at once, not by the cyclic collector.
                run = head.newer
                while run is not vrun:
                    del runs[run.lo]
                    newer = run.newer
                    run.newer = None
                    run = newer
                del runs[vrun.lo]
                if vline > vrun.hi:
                    newer = vrun.newer
                else:
                    vrun.lo = vline
                    runs[vline] = vrun
                    newer = vrun
                head.newer = newer
                newer.older = head
                vrun = head
                vhi = -1
            if pending is not None:
                stack.edge = edge
                stack.erun = erun
                stack.n1 = n1
                stack.n2 = n2
                stack.top = top
                self._count_served(served, links)
                bus.publish(pending)
                pending = None
            if line > last:
                break
            run = runs_get(line)
        stack.edge = edge
        stack.erun = erun
        stack.n1 = n1
        stack.n2 = n2
        stack.top = top
        if served:
            self._count_served(served, links)
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

    def _count_served(self, served: dict, links: tuple) -> None:
        """Add a scan's cross-chip reads, tallied by the serving holder's
        bit, to the interconnect ledger, and empty the tally."""
        transfers = self.interconnect.transfers
        for near, count in served.items():
            key = links[near.bit_length() - 1]
            transfers[key] = transfers.get(key, 0) + count
        served.clear()

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------

    def _load_line(self, core_id: int, line: int, now: int) -> int:
        """Load one line for ``core_id``; return its latency in cycles.

        Operates directly on the core's recency stack, the L3's ordered
        dict and the directory's holder-mask dict — the lookup, the hit
        bookkeeping, and the full L1 -> L2 -> L3 victim cascade run inline
        with no method calls short of cutting a run.
        """
        stack = self.stacks[core_id]
        runs = stack.runs
        run = runs.get(line)
        if run is None:
            holders_map = self._holders
            mask = holders_map.get(line, 0)
            if mask >> core_id & 1:
                # The line lies inside a longer run.
                run = stack.cut(line)
        if run is not None:
            # Private hit.  Unless it is the newest line already, the
            # line (the first of its run) moves to the top of the stack
            # as a run of its own.
            stamp = line + run.d
            top = stack.top
            if stamp + 1 != top:
                if run.hi > line:
                    # The rest of the run keeps its place and stamps.
                    stack.cut(line + 1)
                head = stack.head
                older = run.older
                newer = run.newer
                older.newer = newer
                newer.older = older
                if stack.erun is run and newer is not head:
                    stack.erun = newer
                newest = head.older
                run.older = newest
                run.newer = head
                newest.newer = run
                head.older = run
                run.d = top - line
                stack.top = top + 1
            edge = stack.edge
            if stamp >= edge:
                self.counters[core_id].l1_hits += 1
                return self._lat_l1
            # L2 hit.  If L1 was full, its LRU line takes the freed place
            # in L2.
            self.counters[core_id].l2_hits += 1
            l1 = stack.l1
            n1 = stack.n1
            if n1 < l1.capacity:
                if not n1:
                    stack.erun = run
                stack.n1 = n1 + 1
                stack.n2 -= 1
                return self._lat_l2
            l1.evictions += 1
            erun = stack.erun
            stamp = erun.lo + erun.d
            if stamp < edge:
                stamp = edge
            stack.edge = stamp + 1
            if stamp >= erun.hi + erun.d:
                stack.erun = erun.newer
            return self._lat_l2
        (counters, _, l1, l1_cap, l2, l2_cap, l3, l3d, l3_cap,
         chip, bit, l3_bit, rings, _) = self._core_state[core_id]
        if mask & l3_bit:
            # AMD K10's non-inclusive L3: on a hit, keep the L3 copy when
            # the line is shared (other holders exist), so chip-shared
            # data keeps serving at 75 cycles; hand it over exclusively
            # when this requester is the only interested party, so
            # single-reader data (CoreTime-partitioned objects) does not
            # burn capacity twice.
            counters.l3_hits += 1
            if mask & (mask - 1):
                l3d.move_to_end(line)
                holders_map[line] = mask | bit
            else:
                del l3d[line]
                holders_map[line] = bit
            result = self._lat_l3
        elif mask:
            # The nearest holders' ring serves; its lowest holder id breaks
            # ties.  Read-sharing: the remote copy stays put; we replicate.
            counters.remote_hits += 1
            for ring, cost, _, links in rings:
                if mask & ring:
                    break
            result = cost
            if links is not None:
                near = mask & ring
                key = links[(near & -near).bit_length() - 1]
                transfers = self.interconnect.transfers
                transfers[key] = transfers.get(key, 0) + 1
            holders_map[line] = mask | bit
        else:
            counters.dram_loads += 1
            result = self.dram.load(line, chip, now, False)
            holders_map[line] = bit
        # --- insert at L1, cascading victims downward ------------------
        # L1 insert (MRU) as a run of its own; the cascade below only
        # runs on overflow.  The run is filled in here rather than by
        # ``Run.__init__``, whose call frame costs about as much as the
        # rest of an L1 insert.
        head = stack.head
        newest = head.older
        top = stack.top
        run = new_run(Run)
        run.lo = run.hi = line
        run.d = top - line
        run.older = newest
        run.newer = head
        newest.newer = run
        head.older = run
        runs[line] = run
        stack.top = top + 1
        n1 = stack.n1
        if n1 < l1_cap:
            if not n1:
                stack.erun = run
            stack.n1 = n1 + 1
            return result
        # L1 was full: its LRU line becomes L2's MRU line in place.
        l1.evictions += 1
        erun = stack.erun
        edge = stack.edge
        stamp = erun.lo + erun.d
        if stamp < edge:
            stamp = edge
        stack.edge = stamp + 1
        if stamp >= erun.hi + erun.d:
            stack.erun = erun.newer
        if stack.n2 < l2_cap:
            stack.n2 += 1
            return result
        # L2 was full: the stack's oldest line leaves it.
        l2.evictions += 1
        oldest = head.newer
        victim2 = oldest.lo
        del runs[victim2]
        if oldest.hi > victim2:
            oldest.lo = victim2 + 1
            runs[victim2 + 1] = oldest
        else:
            newer = oldest.newer
            head.newer = newer
            newer.older = head
        # Leaving the private hierarchy for the chip's shared L3.
        mask = holders_map[victim2]
        holders_map[victim2] = mask & ~bit | l3_bit
        if mask & l3_bit:
            l3d.move_to_end(victim2)
            return result
        l3d[victim2] = None
        if len(l3d) <= l3_cap:
            return result
        l3.evictions += 1
        victim3 = l3d.popitem(False)[0]
        # Clean drop: DRAM always has the data.
        mask = holders_map[victim3] & ~l3_bit
        if mask:
            holders_map[victim3] = mask
        else:
            del holders_map[victim3]
        bus = self._bus
        if bus is not None and bus.wants(CacheEvicted):
            bus.publish(CacheEvicted(now, core_id, "L3", victim3,
                                     self.op_obj[core_id]))
        return result
