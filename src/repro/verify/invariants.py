"""Machine-wide runtime invariants.

The simulator's figures are only as trustworthy as its internal
consistency: the fast memory path mutates the same caches the directory
describes, the engine heap is the only source of cross-core ordering,
and CoreTime's decisions ride on counters nobody re-checks.
:class:`InvariantChecker` is the opt-in safety net — attached via
``Simulator(..., checker=InvariantChecker())`` it re-derives the
machine-wide invariants from scratch every ``interval`` events and
raises a structured :class:`InvariantViolation` (carrying a bounded
flight-recorder dump) the moment one fails.

Rules (each individually selectable via the ``rules`` argument):

``cache_capacity``   no cache holds more lines than its capacity
                     (counted from its contents, not its stored size);
``residency``        sharing directory and actual cache contents agree,
                     no line sits in both levels of a private hierarchy
                     (levels are exclusive), and each core's recency
                     stack is consistent: every stamp's slot holds its
                     line, the live slots are exactly the stamped lines,
                     and the stored L1/L2 counts match the levels'
                     contents;
``object_table``     object-table entries point at live cores, carry no
                     duplicate replicas, and match each object's own
                     ``assigned_cores`` view; each core's packing budget
                     is charged exactly the footprints of the objects
                     assigned to it;
``threads``          thread state machine legality — READY threads sit
                     in exactly one runqueue, RUNNING threads are some
                     core's ``current``, MIGRATING/DONE threads are in
                     neither place;
``migrations``       every MIGRATING thread has exactly one in-flight
                     arrival event, scheduled at the time the engine
                     promised (``thread.arrive_at``), cross-checked
                     against the event bus when one is attached;
``heap``             event times never run backwards, and each core's
                     ``in_heap`` flag agrees with the step events
                     actually queued;
``counters``         counter banks are non-negative and monotonic, and
                     per-core deltas conserve the machine totals
                     (ops, migrations out/in vs. threads in flight);
``op_accounting``    per-operation attribution deltas published on
                     ``OperationFinished`` are non-negative (bus-fed;
                     inert without observability).

The checker is deliberately slow-but-thorough (O(cached lines) per
check); it is a verification tool, not a production monitor.  Disabled —
the default — it costs the engine a single ``is None`` test per event.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError, SimulationError
from repro.mem.counters import COUNTER_FIELDS, aggregate
from repro.obs.events import (InvariantViolated, MigrationStarted,
                              OperationFinished, ThreadArrived)
from repro.threads.thread import ThreadState

#: Every rule name, in checking order.  ``op_accounting`` is event-bus
#: driven rather than periodic, but selected through the same list.
DEFAULT_RULES: Tuple[str, ...] = (
    "cache_capacity", "residency", "object_table", "threads",
    "migrations", "heap", "counters", "op_accounting",
)


class InvariantViolation(SimulationError):
    """A machine-wide invariant failed.

    Carries the failed ``rule``, a human-readable ``detail``, the
    simulated time ``ts``, and — when a flight recorder was attached —
    the last ``max_flight`` events as primitive dicts
    (``flight_events``) plus a rendered ``flight_text``, so the evidence
    survives the simulator that produced it.
    """

    def __init__(self, rule: str, detail: str, ts: int,
                 flight: Optional[Any] = None,
                 max_flight: int = 64) -> None:
        self.rule = rule
        self.detail = detail
        self.ts = ts
        self.flight_events: List[dict] = (
            flight.tail(max_flight) if flight is not None else [])
        self.flight_text = self._render_flight()
        super().__init__(f"invariant '{rule}' violated at t={ts}: {detail}")

    def _render_flight(self) -> str:
        if not self.flight_events:
            return ""
        lines = [f"--- last {len(self.flight_events)} recorded events ---"]
        for data in self.flight_events:
            data = dict(data)
            ts = data.pop("ts", "?")
            kind = data.pop("kind", "?")
            rest = " ".join(f"{key}={value}" for key, value in data.items())
            lines.append(f"[{ts:>10}] {kind:<10} {rest}")
        return "\n".join(lines)


class InvariantChecker:
    """Periodic whole-machine consistency checker.

    ``interval``    events between full checks (cheap per-event work —
                    time monotonicity — always runs);
    ``rules``       iterable of rule names from :data:`DEFAULT_RULES`
                    (default: all of them);
    ``max_flight``  flight-recorder events embedded in a violation.
    """

    def __init__(self, interval: int = 512,
                 rules: Optional[Iterable[str]] = None,
                 max_flight: int = 64) -> None:
        if interval < 1:
            raise ConfigError("checker interval must be >= 1 event")
        self.interval = interval
        selected = tuple(rules) if rules is not None else DEFAULT_RULES
        unknown = set(selected) - set(DEFAULT_RULES)
        if unknown:
            raise ConfigError(
                f"unknown invariant rules {sorted(unknown)}; "
                f"choose from {list(DEFAULT_RULES)}")
        self.rules = selected
        self.max_flight = max_flight
        #: Full checks performed / violations raised (test hooks).
        self.checks = 0
        self.violations = 0
        self.sim: Optional[Any] = None
        self._bus = None
        self._events = 0
        self._last_ts = 0
        #: thread name -> promised arrival time (event-bus fed).
        self._inflight: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # engine attachment
    # ------------------------------------------------------------------

    def bind(self, sim: Any) -> None:
        """Attach to a simulator (called from ``Simulator.__init__``)."""
        self.sim = sim
        self.machine = sim.machine
        self.memory = sim.memory
        self._events = 0
        self._last_ts = 0
        self._inflight.clear()
        # Baselines: the checker verifies *deltas*, so an invariant-laden
        # machine reused across simulators starts clean each time.
        self._base_values = [bank.snapshot()
                             for bank in sim.memory.counters]
        self._base_agg = {
            field: sum(values[index] for values in self._base_values)
            for index, field in enumerate(COUNTER_FIELDS)}
        self._base_total_ops = sim.total_ops
        self._base_total_migrations = sim.total_migrations
        self._prev_agg: Optional[Dict[str, int]] = None
        self._bus = sim.obs.bus if sim.obs is not None else None
        if self._bus is not None:
            self._bus.subscribe(self._on_migration, MigrationStarted)
            self._bus.subscribe(self._on_arrival, ThreadArrived)
            if "op_accounting" in self.rules:
                self._bus.subscribe(self._on_op_finished, OperationFinished)

    # ------------------------------------------------------------------
    # bus handlers (independent record of promised arrivals)
    # ------------------------------------------------------------------

    def _on_migration(self, event: MigrationStarted) -> None:
        self._inflight[event.thread] = event.arrive_ts

    def _on_arrival(self, event: ThreadArrived) -> None:
        self._inflight.pop(event.thread, None)

    def _on_op_finished(self, event: OperationFinished) -> None:
        for name in ("cycles", "dram", "remote", "mem_stall", "spin"):
            value = getattr(event, name)
            if value is not None and value < 0:
                self._fail(
                    "op_accounting",
                    f"operation on {event.obj} (core {event.core}): "
                    f"{name} delta is negative ({value})", event.ts)

    # ------------------------------------------------------------------
    # the per-event hook
    # ------------------------------------------------------------------

    def after_event(self, now: int) -> None:
        """Called by the engine after every processed event."""
        self._events += 1
        if now < self._last_ts:
            self._fail("heap",
                       f"event time ran backwards: {now} after "
                       f"{self._last_ts}", now)
        self._last_ts = now
        if self._events % self.interval == 0:
            self.check(now)

    def check(self, now: int) -> None:
        """Run every selected periodic rule immediately."""
        self.checks += 1
        for rule in self.rules:
            runner = self._RUNNERS.get(rule)
            if runner is not None:
                runner(self, now)

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------

    def _check_cache_capacity(self, now: int) -> None:
        memory = self.memory
        for cache in memory.l1s + memory.l2s + memory.l3s:
            held = sum(1 for _ in cache.lines())
            if held > cache.capacity:
                self._fail("cache_capacity",
                           f"{cache.cache_id} holds {held} lines, "
                           f"capacity {cache.capacity}", now)

    def _check_residency(self, now: int) -> None:
        memory = self.memory
        directory = memory.directory
        seen: Dict[int, set] = {}
        for core_id, stack in enumerate(memory.stacks):
            self._check_stack(core_id, stack, now)
            l1_lines = set(stack.l1.lines())
            l2_lines = set(stack.l2.lines())
            both = l1_lines & l2_lines
            if both:
                self._fail("residency",
                           f"core {core_id}: lines {sorted(both)[:4]} in "
                           f"both L1 and L2 (levels are exclusive)", now)
            for line in l1_lines | l2_lines:
                seen.setdefault(line, set()).add(core_id)
        for chip in range(memory.spec.n_chips):
            holder = directory.l3_holder(chip)
            for line in memory.l3s[chip].lines():
                seen.setdefault(line, set()).add(holder)
        recorded = {line: set(holders) for line, holders in directory.items()}
        if seen != recorded:
            for line in set(seen) | set(recorded):
                have = seen.get(line, set())
                claim = recorded.get(line, set())
                if have != claim:
                    self._fail(
                        "residency",
                        f"line {line}: caches hold {sorted(have)}, "
                        f"directory claims {sorted(claim)}", now)

    def _check_stack(self, core_id: int, stack: Any, now: int) -> None:
        """A core's recency stack is well-formed runs: none empty, their
        line ranges disjoint, their stamp ranges disjoint and ordered
        along the ring, the start index naming exactly them, ``erun``
        the oldest run reaching the boundary, and ``n1``/``n2`` the lines
        at or above the boundary and below it."""
        def fail(detail: str) -> None:
            self._fail("residency", f"core {core_id}: {detail}", now)

        head, edge = stack.head, stack.edge
        chain = []
        run = head.newer
        while run is not head:
            if run.newer.older is not run or len(chain) > len(stack.runs):
                fail(f"the run ring is broken after run {run.lo}..{run.hi}")
            chain.append(run)
            run = run.newer
        below = -1
        erun = head
        counts = [0, 0]
        for run in chain:
            lo, hi, d = run.lo, run.hi, run.d
            if lo > hi:
                fail(f"run {lo}..{hi} is empty")
            if lo + d <= below:
                fail(f"run {lo}..{hi} is stamped {lo + d}..{hi + d}, "
                     f"not above the run before it (stamp {below})")
            below = hi + d
            if erun is head and hi + d >= edge:
                erun = run
            upper = max(0, hi + 1 - max(lo, edge - d))
            counts[0] += upper
            counts[1] += hi - lo + 1 - upper
        if below >= stack.top:
            fail(f"stamp {below} is not below the next stamp {stack.top}")
        ordered = sorted(chain, key=lambda run: run.lo)
        for before, after in zip(ordered, ordered[1:]):
            if after.lo <= before.hi:
                fail(f"runs {before.lo}..{before.hi} and "
                     f"{after.lo}..{after.hi} both hold line {after.lo}")
        index = stack.runs
        if (len(index) != len(chain)
                or any(index.get(run.lo) is not run for run in chain)):
            fail(f"the start index names {sorted(index)[:4]}, the runs "
                 f"start at {sorted(run.lo for run in chain)[:4]}")
        if stack.erun is not erun:
            fail(f"the boundary run is not the oldest run stamped at or "
                 f"above {edge}")
        for level, held, stored in zip((stack.l1, stack.l2), counts,
                                       (stack.n1, stack.n2)):
            if held != stored:
                self._fail("residency",
                           f"{level.cache_id} holds {held} lines, its "
                           f"stack counts {stored}", now)

    def _check_object_table(self, now: int) -> None:
        scheduler = self.sim.scheduler
        table = getattr(scheduler, "table", None)
        entries = getattr(table, "entries", None)
        if entries is None:
            return
        n_cores = self.machine.n_cores
        line_size = self.machine.spec.line_size
        charged = [0] * n_cores
        for obj, cores in entries():
            if len(set(cores)) != len(cores):
                self._fail("object_table",
                           f"{obj.name}: duplicate replica cores {cores}",
                           now)
            for core_id in cores:
                if not 0 <= core_id < n_cores:
                    self._fail("object_table",
                               f"{obj.name} assigned to nonexistent core "
                               f"{core_id} (machine has {n_cores})", now)
                charged[core_id] += obj.footprint_bytes(line_size)
            if list(obj.assigned_cores) != list(cores):
                self._fail("object_table",
                           f"{obj.name}: table says cores {cores}, object "
                           f"says {obj.assigned_cores}", now)
        for budget in getattr(scheduler, "budgets", ()):
            if budget.used_bytes != charged[budget.core_id]:
                self._fail("object_table",
                           f"core {budget.core_id}'s cache budget is "
                           f"charged {budget.used_bytes} bytes, its "
                           f"assigned objects' footprints sum to "
                           f"{charged[budget.core_id]}", now)

    def _check_threads(self, now: int) -> None:
        cores = self.machine.cores
        queued: Dict[int, int] = {}
        running = set()
        for core in cores:
            current = core.current
            if current is not None:
                running.add(id(current))
                if current.state is not ThreadState.RUNNING:
                    self._fail("threads",
                               f"core {core.core_id} runs {current.name} "
                               f"in state {current.state.value}", now)
            for thread in core.runqueue:
                queued[id(thread)] = queued.get(id(thread), 0) + 1
        for thread in self.sim.threads:
            n_queued = queued.get(id(thread), 0)
            state = thread.state
            if state is ThreadState.READY:
                if n_queued != 1:
                    self._fail("threads",
                               f"{thread.name} READY but on {n_queued} "
                               f"runqueues", now)
                if id(thread) in running:
                    self._fail("threads",
                               f"{thread.name} both queued and running",
                               now)
            elif state is ThreadState.RUNNING:
                if n_queued:
                    self._fail("threads",
                               f"{thread.name} RUNNING but also on a "
                               f"runqueue", now)
                if thread.core is None \
                        or cores[thread.core].current is not thread:
                    self._fail("threads",
                               f"{thread.name} RUNNING but not current on "
                               f"core {thread.core}", now)
            elif state is ThreadState.MIGRATING:
                if n_queued or id(thread) in running:
                    self._fail("threads",
                               f"{thread.name} MIGRATING while queued or "
                               f"running", now)
                if thread.arrive_at is None:
                    self._fail("threads",
                               f"{thread.name} MIGRATING with no promised "
                               f"arrival time", now)
            else:  # DONE
                if n_queued or id(thread) in running:
                    self._fail("threads",
                               f"{thread.name} DONE but still scheduled",
                               now)

    def _check_migrations(self, now: int) -> None:
        from repro.sim.engine import _KIND_ARRIVAL
        arrivals: Dict[int, List[tuple]] = {}
        for time, _seq, kind, payload in self.sim._heap:
            if kind == _KIND_ARRIVAL:
                thread, core_id = payload
                arrivals.setdefault(id(thread), []).append(
                    (time, core_id, thread))
        for thread in self.sim.threads:
            if thread.state is not ThreadState.MIGRATING:
                continue
            entries = arrivals.pop(id(thread), [])
            if len(entries) != 1:
                self._fail("migrations",
                           f"{thread.name} MIGRATING with {len(entries)} "
                           f"in-flight arrival events (want exactly 1)",
                           now)
            time, _core_id, _ = entries[0]
            if thread.arrive_at is not None and time != thread.arrive_at:
                self._fail("migrations",
                           f"{thread.name} arrival queued for t={time}, "
                           f"engine promised t={thread.arrive_at}", now)
            promised = self._inflight.get(thread.name)
            if promised is not None and promised != time:
                self._fail("migrations",
                           f"{thread.name} arrival queued for t={time}, "
                           f"bus recorded t={promised}", now)
        for entries in arrivals.values():
            _time, _core_id, thread = entries[0]
            self._fail("migrations",
                       f"{thread.name} has an in-flight arrival event but "
                       f"state {thread.state.value}", now)

    def _check_heap(self, now: int) -> None:
        from repro.sim.engine import _KIND_STEP
        step_counts: Dict[int, int] = {}
        for time, _seq, kind, payload in self.sim._heap:
            if time < self._last_ts:
                self._fail("heap",
                           f"queued event at t={time} behind the clock "
                           f"({self._last_ts})", now)
            if kind == _KIND_STEP:
                core_id = payload.core_id
                step_counts[core_id] = step_counts.get(core_id, 0) + 1
        for core in self.machine.cores:
            count = step_counts.get(core.core_id, 0)
            if count > 1:
                self._fail("heap",
                           f"core {core.core_id} has {count} step events "
                           f"queued (want at most 1)", now)
            if core.in_heap != (count == 1):
                self._fail("heap",
                           f"core {core.core_id}: in_heap={core.in_heap} "
                           f"but {count} step events queued", now)

    def _check_counters(self, now: int) -> None:
        banks = self.memory.counters
        for bank, base in zip(banks, self._base_values):
            values = bank.snapshot()
            for index, field in enumerate(COUNTER_FIELDS):
                if values[index] < 0:
                    self._fail("counters",
                               f"core {bank.core_id}: {field} is negative "
                               f"({values[index]})", now)
                if values[index] < base[index]:
                    self._fail("counters",
                               f"core {bank.core_id}: {field} fell below "
                               f"its baseline ({values[index]} < "
                               f"{base[index]})", now)
        agg = aggregate(banks)
        if self._prev_agg is not None:
            for field in COUNTER_FIELDS:
                if agg[field] < self._prev_agg[field]:
                    self._fail("counters",
                               f"aggregate {field} decreased "
                               f"({self._prev_agg[field]} -> {agg[field]})",
                               now)
        self._prev_agg = agg
        sim = self.sim
        ops_delta = agg["ops_completed"] - self._base_agg["ops_completed"]
        sim_ops = sim.total_ops - self._base_total_ops
        if ops_delta != sim_ops:
            self._fail("counters",
                       f"per-core ops_completed sum to {ops_delta}, "
                       f"simulator counted {sim_ops}", now)
        out_delta = agg["migrations_out"] - self._base_agg["migrations_out"]
        sim_migrations = sim.total_migrations - self._base_total_migrations
        if out_delta != sim_migrations:
            self._fail("counters",
                       f"per-core migrations_out sum to {out_delta}, "
                       f"simulator counted {sim_migrations}", now)
        in_flight = sum(1 for t in sim.threads
                        if t.state is ThreadState.MIGRATING)
        in_delta = agg["migrations_in"] - self._base_agg["migrations_in"]
        if in_delta != out_delta - in_flight:
            self._fail("counters",
                       f"migrations_in ({in_delta}) != migrations_out "
                       f"({out_delta}) - in flight ({in_flight})", now)

    _RUNNERS = {
        "cache_capacity": _check_cache_capacity,
        "residency": _check_residency,
        "object_table": _check_object_table,
        "threads": _check_threads,
        "migrations": _check_migrations,
        "heap": _check_heap,
        "counters": _check_counters,
    }

    # ------------------------------------------------------------------

    def _fail(self, rule: str, detail: str, ts: int) -> None:
        self.violations += 1
        bus = self._bus
        if bus is not None and bus.wants(InvariantViolated):
            # Published before raising so the violation is the last
            # record in the flight ring drained into the exception.
            bus.publish(InvariantViolated(ts, rule, detail))
        flight = (self.sim.obs.flight
                  if self.sim is not None and self.sim.obs is not None
                  else None)
        raise InvariantViolation(rule, detail, ts, flight=flight,
                                 max_flight=self.max_flight)
