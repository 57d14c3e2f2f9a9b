"""Tests for repro.mem.system (the full hierarchy).

Every memory system built by :func:`make` is shadowed by the reference
model (:mod:`repro.verify.reference`): each ``load``/``store``/``scan``
must charge the model's latency, and :func:`compare` checks the end
state — counters, LRU order, DRAM and interconnect state, and the
sharing directory against the caches' contents.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.topology import LatencySpec, MachineSpec
from repro.mem.cache import Run
from repro.mem.system import MemorySystem
from repro.obs import CacheEvicted, Observability
from repro.verify.invariants import InvariantChecker
from repro.verify.reference import compare, shadow

from tests.helpers import tiny_spec


def make(**overrides) -> MemorySystem:
    memory = MemorySystem(tiny_spec(**overrides))
    shadow(memory)
    return memory


LINE = 64

#: The per-core counters of the five places a load can be served from.
SOURCES = ("l1_hits", "l2_hits", "l3_hits", "remote_hits", "dram_loads")


def load_from(memory: MemorySystem, core: int, line: int):
    """Load ``line`` on ``core``; return its latency and the one source
    counter it advanced (by exactly one)."""
    counters = memory.counters[core]
    before = [getattr(counters, name) for name in SOURCES]
    latency = memory.load(core, line * LINE, 0)
    grew = [getattr(counters, name) - was
            for name, was in zip(SOURCES, before)]
    assert sorted(grew) == [0, 0, 0, 0, 1], grew
    return latency, SOURCES[grew.index(1)]


class TestLoadPath:
    def test_cold_load_comes_from_dram(self):
        memory = make()
        latency, source = load_from(memory, 0, 100)
        assert source == "dram_loads"
        assert latency >= memory.spec.latency.dram_base
        assert memory.counters[0].dram_loads == 1

    def test_second_load_hits_l1(self):
        memory = make()
        memory.load(0, 100 * LINE, 0)
        latency, source = load_from(memory, 0, 100)
        assert source == "l1_hits"
        assert latency == 3

    def test_l2_hit_after_l1_eviction(self):
        memory = make()
        memory.load(0, 0, 0)
        # Fill L1 (8 lines) to push line 0 into L2.
        for i in range(1, 9):
            memory.load(0, i * LINE, 0)
        latency, source = load_from(memory, 0, 0)
        assert source == "l2_hits"
        assert latency == 14

    def test_l3_hit_after_private_eviction(self):
        memory = make()
        memory.load(0, 0, 0)
        # Push line 0 through L1 (8) and L2 (32) into the chip L3.
        for i in range(1, 42):
            memory.load(0, i * LINE, 0)
        latency, source = load_from(memory, 0, 0)
        assert source == "l3_hits"
        assert latency == 75

    def test_remote_hit_from_other_core(self):
        memory = make()
        memory.load(1, 0, 0)            # core 1 caches line 0
        latency, source = load_from(memory, 0, 0)
        assert source == "remote_hits"
        assert latency == 127           # same chip

    def test_remote_hit_cross_chip_costs_more(self):
        memory = make()
        memory.load(2, 0, 0)            # core 2 is on chip 1
        latency, source = load_from(memory, 0, 0)
        assert source == "remote_hits"
        assert latency > 127

    def test_read_sharing_replicates(self):
        memory = make()
        memory.load(1, 0, 0)
        memory.load(0, 0, 0)
        holders = memory.directory.holders(0)
        assert 0 in holders and 1 in holders

    def test_mem_cycles_accumulate(self):
        memory = make()
        memory.load(0, 0, 0)
        assert memory.counters[0].mem_cycles > 0


class TestExclusivity:
    def test_line_never_in_l1_and_l2_of_same_core(self):
        memory = make()
        for i in range(100):
            memory.load(0, (i % 13) * LINE, 0)
        compare(memory)

    def test_l3_keeps_shared_lines_on_hit(self):
        memory = make()
        # Core 0 and core 1 both cache line 0; core 0 then evicts it to
        # L3 by filling its private caches.
        memory.load(0, 0, 0)
        memory.load(1, 0, 0)
        for i in range(1, 42):
            memory.load(0, i * LINE, 0)
        # Line 0: core1 private + (possibly) L3.  A fresh L3 hit by core 0
        # must keep the L3 copy because core 1 still shares it.
        l3_holder = memory.directory.l3_holder(0)
        if l3_holder in memory.directory.holders(0):
            memory.load(0, 0, 0)
            assert l3_holder in memory.directory.holders(0)

    def test_l3_hands_over_private_lines(self):
        memory = make()
        memory.load(0, 0, 0)
        for i in range(1, 42):         # evict line 0 to L3
            memory.load(0, i * LINE, 0)
        l3_holder = memory.directory.l3_holder(0)
        assert l3_holder in memory.directory.holders(0)
        memory.load(0, 0, 0)           # sole user takes it back
        assert l3_holder not in memory.directory.holders(0)
        compare(memory)


class TestStores:
    def test_store_invalidates_remote_copies(self):
        memory = make()
        memory.load(1, 0, 0)
        memory.load(2, 0, 0)
        memory.store(0, 0, 0)
        holders = memory.directory.holders(0)
        assert holders == frozenset({0})
        assert memory.counters[0].invalidations == 2

    def test_store_counts(self):
        memory = make()
        memory.store(0, 0, 0)
        assert memory.counters[0].stores == 1

    def test_store_without_sharers_is_cheap(self):
        memory = make()
        memory.load(0, 0, 0)
        latency = memory.store(0, 0, 0)
        assert latency == memory.spec.latency.l1

    def test_store_with_sharers_charges_invalidation(self):
        memory = make()
        memory.load(0, 0, 0)
        memory.load(1, 0, 0)
        latency = memory.store(0, 0, 0)
        assert latency > memory.spec.latency.l1
        compare(memory)


class TestScan:
    def test_scan_touches_every_line(self):
        memory = make()
        memory.scan(0, 0, 5 * LINE, 0)
        assert sum(getattr(memory.counters[0], name)
                   for name in SOURCES) == 5

    def test_scan_partial_line_counts_once(self):
        memory = make()
        memory.scan(0, 0, 1, 0)
        assert sum(getattr(memory.counters[0], name)
                   for name in SOURCES) == 1

    def test_scan_zero_bytes(self):
        memory = make()
        assert memory.scan(0, 0, 0, 0) == 0

    def test_stream_discount_applies_after_first_dram_line(self):
        memory = make()
        cold = memory.scan(0, 0, 10 * LINE, 0)
        lat = memory.spec.latency
        # First line at full DRAM cost, the rest streamed: the total must
        # be far below 10 full-cost accesses.
        assert cold < 10 * lat.dram_base

    def test_per_line_compute_added(self):
        # Two fresh systems so DRAM queue state is identical.
        plain = make().scan(0, 0, 4 * LINE, 0)
        with_compute = make().scan(0, 0, 4 * LINE, 0, per_line_compute=10)
        assert with_compute == plain + 40

    def test_warm_scan_is_l1_fast(self):
        memory = make()
        memory.scan(0, 0, 4 * LINE, 0)
        warm = memory.scan(0, 0, 4 * LINE, 0)
        assert warm == 4 * memory.spec.latency.l1


def levels(memory: MemorySystem, core: int = 0):
    """Core ``core``'s L2 and L1 lines, each in LRU order."""
    return list(memory.l2s[core].lines()), list(memory.l1s[core].lines())


def hits(memory: MemorySystem, core: int = 0):
    """Core ``core``'s L1 and L2 hits so far."""
    counters = memory.counters[core]
    return counters.l1_hits, counters.l2_hits


class TestRunWalk:
    """Scans walk the runs of the core's recency stack and fold each
    stretch of private hits in closed form; every case here is shadowed
    by the reference model, which walks line by line (tiny machine: L1 8
    lines, L2 32)."""

    def test_rescan_shorter_then_longer(self):
        memory = make()
        memory.scan(0, 0, 20 * LINE, 0)
        assert levels(memory) == (list(range(12)), list(range(12, 20)))
        # Five L2 hits with L1 full: each demotes L1's LRU line.
        memory.scan(0, 0, 5 * LINE, 0)
        assert levels(memory) == (list(range(5, 17)),
                                  [17, 18, 19, 0, 1, 2, 3, 4])
        memory.scan(0, 0, 15 * LINE, 0)
        assert levels(memory) == ([15, 16, 17, 18, 19] + list(range(7)),
                                  list(range(7, 15)))
        compare(memory)
        stack = memory.stacks[0]
        newest = stack.head.older
        assert (newest.lo, newest.hi) == (0, 14)
        assert len(stack.runs) == 2

    def test_scan_longer_than_the_stack_evicts_its_own_lines(self):
        # A run of misses longer than L1 + L2 (40 lines) settles in
        # stretches of at most 40; 41 lines is one more than a stretch.
        for n in (41, 60, 100):
            memory = make()
            memory.scan(0, 0, n * LINE, 0)
            assert levels(memory) == (list(range(n - 40, n - 8)),
                                      list(range(n - 8, n)))
            # Each L3 hit evicts the stack's oldest line: first lines
            # this scan has yet to reach, then lines it read earlier.
            l3_hits = memory.counters[0].l3_hits
            memory.scan(0, 0, n * LINE, 0)
            assert memory.counters[0].l3_hits - l3_hits == n
            assert levels(memory) == (list(range(n - 40, n - 8)),
                                      list(range(n - 8, n)))
            compare(memory)

    def test_straddling_rescan_with_l1_full_has_no_l1_hits(self):
        memory = make()
        memory.scan(0, 0, 30 * LINE, 0)
        before = hits(memory)
        # Lines 0-21 are in L2 and 22-29 fill L1.  Each L2 hit demotes the
        # oldest L1 line, one this scan reaches later, so none of the 30
        # lines is still in L1 when it is read.
        memory.scan(0, 0, 30 * LINE, 0)
        assert hits(memory) == (before[0], before[1] + 30)
        assert levels(memory)[1] == list(range(22, 30))
        compare(memory)

    def test_straddling_rescan_after_an_invalidation_hole(self):
        memory = make()
        memory.scan(0, 0, 30 * LINE, 0)
        memory.store(1, 25 * LINE, 0)
        assert len(memory.l1s[0]) == 7
        before = hits(memory)
        # The first L2 hit fills the hole and demotes nothing; the second
        # demotes line 22, still ahead of the scan.  Line 25 is a miss.
        memory.scan(0, 0, 30 * LINE, 0)
        assert hits(memory) == (before[0], before[1] + 29)
        assert levels(memory)[1] == list(range(22, 30))
        compare(memory)

    def test_store_splits_a_run_and_a_rescan_crosses_the_hole(self):
        memory = make()
        memory.scan(0, 0, 16 * LINE, 0)
        memory.store(1, 7 * LINE, 0)
        stack = memory.stacks[0]
        assert sorted((run.lo, run.hi) for run in stack.runs.values()) \
            == [(0, 6), (8, 15)]
        remote = memory.counters[0].remote_hits
        memory.scan(0, 0, 16 * LINE, 0)
        assert memory.counters[0].remote_hits == remote + 1
        newest = stack.head.older
        assert (newest.lo, newest.hi) == (0, 15)
        assert list(stack.runs) == [0]
        compare(memory)

    @pytest.mark.parametrize("line", [0, 4, 9])
    def test_single_line_load_within_a_run(self, line):
        memory = make()
        memory.scan(0, 0, 10 * LINE, 0)
        latency, source = load_from(memory, 0, line)
        assert source == ("l2_hits" if line < 2 else "l1_hits")
        assert levels(memory)[1][-1] == line
        # The line is a run of its own at the top; the rest keep their
        # stamps.
        stack = memory.stacks[0]
        assert stack.runs[line] is stack.head.older
        assert sum(run.hi - run.lo + 1 for run in stack.runs.values()) == 10
        compare(memory)

    def test_newest_line_hit_moves_nothing(self):
        memory = make()
        memory.load(0, 3 * LINE, 0)
        stack = memory.stacks[0]
        top = stack.top
        for _ in range(5):
            assert load_from(memory, 0, 3) == (3, "l1_hits")
        assert stack.top == top
        compare(memory)


def watched(memory: MemorySystem) -> list:
    """Publish ``memory``'s L3 evictions to a subscriber that checks the
    evicting core's recency stack at publish time; return the list the
    published events are appended to."""
    obs = Observability(events=False, metrics=False, flight=0,
                        capture_memory=True)
    checker = InvariantChecker()
    published = []

    def check(event):
        checker._check_stack(event.core, memory.stacks[event.core],
                             event.ts)
        published.append(event)

    obs.bus.subscribe(check, CacheEvicted)
    memory.attach_observability(obs)
    return published


def settled(memory: MemorySystem):
    """What the scans settle: the counters, every cache's evictions, each
    L3's order and each stack's runs, boundary, counts and next stamp."""
    return ([bank.snapshot() for bank in memory.counters],
            [cache.evictions
             for cache in memory.l1s + memory.l2s + memory.l3s],
            [list(l3.lines()) for l3 in memory.l3s],
            [(sorted((run.lo, run.hi, run.d) for run in stack.runs.values()),
              stack.edge, (stack.erun.lo, stack.erun.hi), stack.n1,
              stack.n2, stack.top)
             for stack in memory.stacks])


class TestMissStretch:
    """A scan's private misses are probed, charged and entered in the L3
    line by line, and settle the recency stack once per stretch: up to
    L1 + L2 (40) consecutive lines the core does not hold (tiny machine:
    L1 8 lines, L2 32, L3 128).  Each case is shadowed by the reference
    model, which walks line by line."""

    def test_cold_stretch_fills_l1_then_l2_then_evicts(self):
        # Lines 0-39 are one stretch: 0-7 fill L1, the next 32 demote L1's
        # oldest lines into L2.  Lines 40-43 find both full, and each
        # evicts the stack's oldest line to L3.
        memory = make()
        memory.scan(0, 0, 44 * LINE, 0)
        assert levels(memory) == (list(range(4, 36)), list(range(36, 44)))
        assert list(memory.l3s[0].lines()) == [0, 1, 2, 3]
        assert (memory.l1s[0].evictions, memory.l2s[0].evictions) == (36, 4)
        assert list(memory.stacks[0].runs) == [4]
        compare(memory)

    def test_rescan_chases_its_own_evictions(self):
        # The stack is full: lines 20-24, then 100-134.  Lines 0-19 evict
        # 20-24 before the scan reaches them, so those are L3 hits; the
        # later victims come from the next run.  At 40 lines the stretch
        # has evicted the whole stack, and lines 40-44 evict its first
        # lines.
        memory = make()
        memory.scan(0, 20 * LINE, 5 * LINE, 0)
        memory.scan(0, 100 * LINE, 35 * LINE, 0)
        before = memory.counters[0].l3_hits
        memory.scan(0, 0, 45 * LINE, 0)
        assert memory.counters[0].l3_hits - before == 5
        assert levels(memory) == (list(range(5, 37)), list(range(37, 45)))
        assert list(memory.l3s[0].lines()) \
            == list(range(100, 135)) + list(range(5))
        compare(memory)

    def test_evicted_runs_are_freed_at_once(self):
        # The chase above evicts two whole runs in one stretch; they must
        # not keep each other alive in a reference cycle.
        def runs_alive():
            return sum(type(obj) is Run for obj in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = runs_alive()
            memory = make()
            memory.scan(0, 20 * LINE, 5 * LINE, 0)
            memory.scan(0, 100 * LINE, 35 * LINE, 0)
            memory.scan(0, 0, 45 * LINE, 0)
            grown = runs_alive() - before
        finally:
            gc.enable()
        # Each stack's runs and its ring's head.
        assert grown == sum(len(stack.runs) + 1 for stack in memory.stacks)

    def test_stretch_fills_an_l1_hole_and_demotes_past_it(self):
        memory = make()
        memory.scan(0, 0, 30 * LINE, 0)
        memory.store(1, 25 * LINE, 0)
        assert len(memory.l1s[0]) == 7
        # The first line fills the hole; the next 14 demote L1's oldest
        # lines (22-29 less 25, then the stretch's own) and the last four
        # find L2 full.
        memory.scan(0, 100 * LINE, 15 * LINE, 0)
        assert levels(memory) == (
            list(range(4, 25)) + list(range(26, 30)) + list(range(100, 107)),
            list(range(107, 115)))
        assert list(memory.l3s[0].lines()) == [0, 1, 2, 3]
        compare(memory)

    def test_publishing_settles_the_same_stack(self):
        # Published L3 evictions split stretches; the stack each mode
        # settles is the same, and the subscriber never sees it stale.
        quiet = make(l3_bytes=4096)
        loud = make(l3_bytes=4096)
        published = watched(loud)
        for memory in (quiet, loud):
            memory.scan(0, 0, 100 * LINE, 0)
            memory.scan(1, 40 * LINE, 80 * LINE, 0)
            memory.scan(0, 0, 100 * LINE, 0)
            memory.store(2, 90 * LINE, 0)
            memory.scan(0, 50 * LINE, 70 * LINE, 0)
            compare(memory)
        assert len(published) > 40
        assert settled(quiet) == settled(loud)


def traffic_since(memory: MemorySystem, before: dict) -> dict:
    """The line transfers counted on each link since the ledger read
    ``before``."""
    now = memory.interconnect.transfers
    return {key: count - before.get(key, 0) for key, count in now.items()
            if count != before.get(key, 0)}


class TestCrossChipScan:
    def test_every_streamed_remote_line_counts_on_its_link(self):
        """A scan's remote lines after the first are charged the stream
        cost, but each still crosses chips (scaled(8): cores 0-3 on chip
        0, cores 4-7 on chip 1)."""
        memory = MemorySystem(MachineSpec.scaled(8))
        shadow(memory)
        memory.scan(4, 0, 8 * LINE, 0)
        before = dict(memory.interconnect.transfers)
        memory.scan(0, 0, 8 * LINE, 0)
        compare(memory)
        assert memory.counters[0].remote_hits == 8
        assert traffic_since(memory, before) == {(1, 0): 8}


class TestRemoteTieBreak:
    """A remote read is served by the nearest holder, and among equally
    near holders by the lowest holder id — whatever order the holders
    arrived in.  On the paper's square of four chips, chips 1 and 2 are
    each one hop from chip 3 and two hops from each other."""

    @staticmethod
    def read(via, holders, reader):
        """Return the memory system, the reader's latency and the links
        its read counted on."""
        memory = MemorySystem(MachineSpec.scaled(8))
        shadow(memory)
        for core in holders:
            memory.load(core, 0, 0)
        before = dict(memory.interconnect.transfers)
        if via == "load":
            latency = memory.load(reader, 0, 0)
        else:
            latency = memory.scan(reader, 0, LINE, 0)
        compare(memory)
        return memory, latency, traffic_since(memory, before)

    @pytest.mark.parametrize("via", ["load", "scan"])
    def test_lowest_id_serves_among_equally_near(self, via):
        _, _, traffic = self.read(via, (9, 5), 12)
        assert traffic == {(1, 3): 1}

    @pytest.mark.parametrize("via", ["load", "scan"])
    def test_distance_beats_id(self, via):
        memory, latency, traffic = self.read(via, (0, 13), 14)
        assert traffic == {}
        assert memory.counters[14].remote_hits == 1
        assert latency == memory.spec.latency.remote_same_chip


@settings(max_examples=40, deadline=None)
@given(n_chips=st.sampled_from([1, 2, 4]),
       ops=st.lists(
           st.tuples(st.sampled_from(["load", "store", "scan"]),
                     st.integers(min_value=0, max_value=7),      # core
                     st.integers(min_value=0, max_value=12287),  # address
                     st.integers(min_value=1, max_value=2048),   # scan bytes
                     st.one_of(st.just(0),                       # time step
                               st.integers(min_value=1, max_value=4000)),
                     st.integers(min_value=0, max_value=20)),    # compute
           min_size=60, max_size=120))
def test_random_traffic_preserves_invariants(n_chips, ops):
    """Loads, stores and unaligned scans from every core of a 1-, 2- or
    4-chip machine, at advancing times: every call charges the reference
    model's latency, and the end state matches it — including the
    directory agreeing with the caches and every cache within capacity.
    This pins the single-chip branch of ``_scan`` and the DRAM queueing
    arithmetic (busy controllers and a small L3 make queueing and L3
    spills common).  The same traffic with L3 evictions published, which
    splits a scan's miss stretches, settles the same state."""
    quiet, loud = (make(n_chips=n_chips, l3_bytes=4096,
                        latency=LatencySpec(dram_occupancy=48))
                   for _ in range(2))
    watched(loud)
    for memory in (quiet, loud):
        now = 0
        for op, core, addr, nbytes, step, compute in ops:
            core %= memory.spec.n_cores
            now += step
            if op == "scan":
                memory.scan(core, addr, nbytes, now, compute)
            else:
                getattr(memory, op)(core, addr, now)
        compare(memory)
    assert settled(quiet) == settled(loud)


@settings(max_examples=20, deadline=None)
@given(ops=st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=60)),
    min_size=1, max_size=200))
def test_write_invalidation_makes_writer_sole_holder(ops):
    memory = make()
    for core, line in ops:
        memory.load((core + 1) % 4, line * LINE, 0)
        memory.store(core, line * LINE, 0)
        # Immediately after a store, the writer is the only holder.
        holders = memory.directory.holders(line)
        assert holders == frozenset({core})
