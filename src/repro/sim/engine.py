"""The discrete-event simulation engine.

:class:`Simulator` drives a :class:`~repro.cpu.machine.Machine` under a
:class:`~repro.sched.base.SchedulerRuntime`.  Cores carry local clocks; a
heap of pending events (core steps and migration arrivals) executes them in
global time order, so cross-core interactions — lock hand-offs, coherence
invalidations, migrations — are causally ordered.

One *step* executes one instruction item of a core's current thread and
advances that core's clock by the item's simulated cost.  Threads are
cooperative: they run until they migrate or finish, or a time-sharing
scheduler requeues them at an operation boundary, like CoreTime's per-core
user-level threading (§4).

Item dispatch is a precomputed per-class table (``_dispatch``) built at
construction: one dict lookup per step instead of a type-comparison chain,
with every :data:`~repro.threads.program.ITEM_TYPES` class guaranteed an
entry (enforced by tests).  An unknown item raises
:class:`~repro.errors.SimulationError` exactly as before.

Known approximation (documented in DESIGN.md): a ``Scan`` is charged in a
single step, so another core observes its cache-state effects at the scan's
start time rather than spread across it.  Scans are lock-protected in the
workloads we model, so this does not change the contention structure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.cpu.core import Core
from repro.cpu.machine import Machine
from repro.errors import DeadlockError, SimulationError
from repro.mem.counters import IDX_DRAM, IDX_MEM, IDX_REMOTE, aggregate
from repro.obs import (MIGRATION_BUCKETS, OP_LATENCY_BUCKETS,
                       QUEUE_DEPTH_BUCKETS, HistogramSummary,
                       LockContended, MigrationStarted, Observability,
                       OperationFinished, OperationStarted, ThreadArrived,
                       ThreadFinished, ThreadSpawned)
from repro.sched.base import SchedulerRuntime
from repro.threads.program import (Acquire, Compute, CtEnd, CtStart,
                                   Release, Scan, Store)
from repro.threads.thread import Program, SimThread, ThreadState

_KIND_STEP = 0
_KIND_ARRIVAL = 1

# Factory consulted when a Simulator is built without an explicit
# ``checker`` — lets ``repro.bench --verify`` turn invariant checking on
# for every simulator an experiment constructs without threading a
# parameter through each figure runner.  The engine only duck-types the
# result (``bind``/``after_event``), so repro.verify stays un-imported
# here and no cycle forms.
_default_checker_factory: Optional[Callable[[], Any]] = None


def set_default_checker(factory: Optional[Callable[[], Any]]) -> None:
    """Install (or clear, with None) a checker factory applied to every
    subsequently constructed :class:`Simulator`."""
    global _default_checker_factory
    _default_checker_factory = factory


@dataclass
class RunResult:
    """Summary of one :meth:`Simulator.run` call."""

    scheduler: str
    horizon_cycles: int
    ops: int
    throughput_ops_per_sec: float
    migrations: int
    steps: int
    counters: Dict[str, int] = field(default_factory=dict)
    dram_lines: int = 0
    dram_queued_cycles: int = 0
    cross_chip_messages: int = 0
    #: Operation-latency histogram (cycles between ``ct_start`` and
    #: ``ct_end``); populated when observability metrics are attached.
    op_latency: Optional[HistogramSummary] = None
    #: In-flight migration cycles histogram; same condition.
    migration_latency: Optional[HistogramSummary] = None
    #: Full metrics-registry snapshot (empty without observability).
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def kops_per_sec(self) -> float:
        """Thousands of operations per second (Figure 4's y-axis unit)."""
        return self.throughput_ops_per_sec / 1e3

    def __str__(self) -> str:
        return (f"RunResult({self.scheduler}: {self.ops} ops in "
                f"{self.horizon_cycles} cycles = "
                f"{self.kops_per_sec:,.0f} kops/s, "
                f"{self.migrations} migrations)")


class Simulator:
    """Event-driven executor for one machine + scheduler + thread set."""

    def __init__(self, machine: Machine, scheduler: SchedulerRuntime,
                 obs: Optional[Observability] = None,
                 checker: Optional[Any] = None,
                 faults: Optional[Any] = None) -> None:
        self.machine = machine
        self.memory = machine.memory
        # Bound-method handles for the per-item handlers (one attribute
        # hop instead of two on every memory access).
        self._mem_load = machine.memory.load
        self._mem_store = machine.memory.store
        self._mem_scan = machine.memory.scan
        self.scheduler = scheduler
        self.obs = obs
        # Publishers hold these locals; None means "construct nothing".
        self._bus = self.obs.bus if self.obs is not None else None
        self._h_oplat = self._h_miglat = None
        self._c_ops = self._c_migrations = self._c_lock_spins = None
        # Memory-event attribution context: the memory system's per-core
        # current-object list when capture_memory is on, else None.
        self._mem_ctx = None
        scheduler.obs = self.obs
        scheduler.bind(machine)
        if self.obs is not None:
            self.obs.begin_run(scheduler.name)
            machine.memory.attach_observability(self.obs)
            self._mem_ctx = machine.memory.op_obj
            metrics = self.obs.metrics
            if metrics is not None:
                self._h_oplat = metrics.histogram(
                    "sim.op_latency_cycles", OP_LATENCY_BUCKETS)
                self._h_miglat = metrics.histogram(
                    "sim.migration_cycles", MIGRATION_BUCKETS)
                self._c_ops = metrics.counter("sim.ops")
                self._c_migrations = metrics.counter("sim.migrations")
                self._c_lock_spins = metrics.counter("sim.lock_spins")
                depth_hist = metrics.histogram(
                    "sim.runqueue_depth", QUEUE_DEPTH_BUCKETS)
                for core in machine.cores:
                    core.runqueue.depth_hist = depth_hist
        self.threads: List[SimThread] = []
        self._heap: List[tuple] = []
        self._seq = 0
        self.total_ops = 0
        self.total_migrations = 0
        self.total_steps = 0
        self._spec = machine.spec
        # Heterogeneous-core support (§6.1): per-core compute divisors,
        # or None for the homogeneous fast path.
        if machine.spec.core_speeds is None:
            self._speeds = None
        else:
            self._speeds = [machine.spec.speed_of(c)
                            for c in range(machine.n_cores)]
        self._ops_at_run_start = 0
        # Idle-poll interval is a static scheduler property (class
        # attribute on work stealing); hoisted out of the per-event path.
        self._idle_poll = getattr(scheduler, "idle_poll_interval", 0)
        # Precomputed per-item-class dispatch table.  One dict lookup per
        # step replaces the old type-comparison chain; the table covers
        # exactly ITEM_TYPES (tests assert this stays true).
        self._dispatch: Dict[type, Callable[[Core, SimThread, Any], None]] \
            = {
                Compute: self._do_compute,
                Scan: self._do_scan,
                Store: self._do_store,
                Acquire: self._do_acquire,
                Release: self._do_release,
                CtStart: self._do_ct_start,
                CtEnd: self._do_ct_end,
            }
        # Verification layer (repro.verify), duck-typed so the engine
        # never imports it: both objects expose bind(sim) and
        # after_event(...).  When disabled (the default) the run loop
        # pays two ``is not None`` tests per event and nothing else.
        if checker is None and _default_checker_factory is not None:
            checker = _default_checker_factory()
        self.checker = checker
        self.faults = faults
        if faults is not None:
            faults.bind(self)
        if checker is not None:
            checker.bind(self)

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------

    def spawn(self, program: Union[Program, SimThread],
              name: Optional[str] = None,
              core_id: Optional[int] = None) -> SimThread:
        """Create a thread and place it on a core.

        ``core_id`` pins the thread explicitly; otherwise the scheduler's
        placement policy decides (round-robin for the thread scheduler).
        """
        thread = (program if isinstance(program, SimThread)
                  else SimThread(program, name))
        if core_id is None:
            core_id = self.scheduler.place_thread(thread)
        if not 0 <= core_id < self.machine.n_cores:
            raise SimulationError(
                f"scheduler placed {thread.name} on invalid core {core_id}")
        thread.home_core = core_id
        thread.created_at = self.machine.cores[core_id].time
        self.threads.append(thread)
        self._enqueue_thread(thread, core_id,
                             self.machine.cores[core_id].time)
        bus = self._bus
        if bus is not None and bus.wants(ThreadSpawned):
            bus.publish(ThreadSpawned(thread.created_at, core_id,
                                      thread.name))
        return thread

    def spawn_per_core(self, make_program, name_prefix: str = "thread"):
        """One thread per core, as in the paper's workloads.

        ``make_program(core_id)`` must return a fresh generator.
        """
        return [
            self.spawn(make_program(core_id), f"{name_prefix}-{core_id}",
                       core_id=core_id)
            for core_id in range(self.machine.n_cores)
        ]

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[int] = None,
            max_ops: Optional[int] = None,
            max_steps: Optional[int] = None) -> RunResult:
        """Execute events until a limit is hit.

        ``until``     — stop before any event later than this cycle count
                        (the event is left queued, so ``run`` can resume);
        ``max_ops``   — stop once this many operations completed in this
                        call;
        ``max_steps`` — hard step bound (guards runaway programs in tests).

        A run that dies with a :class:`~repro.errors.SimulationError`
        (including :class:`~repro.errors.DeadlockError`) dumps the
        observability flight recorder first, so failed runs leave a
        post-mortem trail.
        """
        if until is None and max_ops is None and max_steps is None:
            raise SimulationError("run() needs a stopping condition")
        try:
            return self._run(until, max_ops, max_steps)
        except SimulationError as exc:
            if self.obs is not None:
                self.obs.on_crash(exc)
            raise

    def _run(self, until: Optional[int], max_ops: Optional[int],
             max_steps: Optional[int]) -> RunResult:
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        cores = self.machine.cores
        step = self._step
        checker = self.checker
        faults = self.faults
        ops_target = (self.total_ops + max_ops) if max_ops else None
        steps_left = max_steps if max_steps is not None else -1
        self._ops_at_run_start = self.total_ops
        while heap:
            if ops_target is not None and self.total_ops >= ops_target:
                break
            if steps_left == 0:
                break
            entry = heappop(heap)
            time, _, kind, payload = entry
            if until is not None and time > until:
                heappush(heap, entry)
                break
            if kind == _KIND_STEP:
                core: Core = payload
                core.in_heap = False
                step(core, time)
                if core.current is not None or core.runqueue:
                    # Inlined _push_step: re-arm the core's next step.
                    if not core.in_heap:
                        core.in_heap = True
                        self._seq += 1
                        heappush(heap,
                                 (core.time, self._seq, _KIND_STEP, core))
                else:
                    core.note_idle()
                    self._maybe_poll_idle(core, time)
            else:  # arrival
                thread, core_id = payload
                core = cores[core_id]
                core.counters.migrations_in += 1
                thread.state = ThreadState.READY
                thread.arrive_at = None
                self._enqueue_thread(thread, core_id, time)
                bus = self._bus
                if bus is not None and bus.wants(ThreadArrived):
                    bus.publish(ThreadArrived(time, core_id, thread.name))
            steps_left -= 1
            # Verification hooks run *after* the event: faults first (so
            # an injected bug is live state), then the checker that must
            # catch it.
            if faults is not None:
                faults.after_event(self, time)
            if checker is not None:
                checker.after_event(time)
        else:
            if any(not t.done for t in self.threads):
                raise DeadlockError(
                    "event heap drained with live threads: "
                    + ", ".join(t.name for t in self.threads if not t.done))
        horizon = until if until is not None else self.machine.now
        self.machine.settle_idle(horizon)
        return self._result(horizon)

    def _result(self, horizon: int) -> RunResult:
        memory = self.memory
        op_latency = migration_latency = None
        metrics_snapshot: Dict[str, Any] = {}
        if self._h_oplat is not None:
            op_latency = self._h_oplat.summary()
            migration_latency = self._h_miglat.summary()
            metrics_snapshot = self.obs.metrics_snapshot()
        return RunResult(
            op_latency=op_latency,
            migration_latency=migration_latency,
            metrics=metrics_snapshot,
            scheduler=self.scheduler.name,
            horizon_cycles=horizon,
            ops=self.total_ops,
            throughput_ops_per_sec=(
                self.total_ops / self._spec.seconds(horizon)
                if horizon > 0 else 0.0),
            migrations=self.total_migrations,
            steps=self.total_steps,
            counters=aggregate(memory.counters),
            dram_lines=memory.dram.total_lines_served,
            dram_queued_cycles=memory.dram.total_queued_cycles,
            cross_chip_messages=memory.interconnect.cross_chip_messages(),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _push(self, time: int, kind: int, payload: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, payload))

    def _push_step(self, core: Core) -> None:
        if not core.in_heap:
            core.in_heap = True
            self._push(core.time, _KIND_STEP, core)

    def _enqueue_thread(self, thread: SimThread, core_id: int,
                        at: int) -> None:
        core = self.machine.cores[core_id]
        core.runqueue.push(thread)
        if core.current is None and not core.in_heap:
            core.note_woken(max(at, core.time))
            self._push_step(core)
        elif len(core.runqueue) > 1:
            # Queued-up work: give parked cores a chance to scavenge it
            # (no-op unless the scheduler polls while idle).
            interval = self._idle_poll
            if interval:
                for other in self.machine.cores:
                    if other.current is None and not other.in_heap \
                            and not other.runqueue:
                        other.in_heap = True
                        self._push(max(other.time, at) + interval,
                                   _KIND_STEP, other)

    def _maybe_poll_idle(self, core: Core, now: int) -> None:
        """Schedule an idle-poll step for schedulers that scavenge work.

        A parked core receives no events, so a scheduler whose
        ``idle_poll_interval`` is positive (work stealing) gets the core
        re-woken periodically while other cores have queued threads.
        """
        interval = self._idle_poll
        if not interval or core.in_heap:
            return
        if any(c.runqueue for c in self.machine.cores if c is not core):
            core.in_heap = True
            self._push(max(core.time, now) + interval, _KIND_STEP, core)

    def _step(self, core: Core, now: int) -> None:
        thread = core.current
        if thread is None:
            thread = core.runqueue.pop()
            if thread is None:
                thread = self.scheduler.on_idle(core, core.time)
                if thread is not None:
                    # Stolen work starts when the poll fired, not at the
                    # stale clock of a long-idle core.
                    core.note_woken(max(now, core.time))
            if thread is None:
                return
            thread.state = ThreadState.RUNNING
            thread.core = core.core_id
            core.current = thread
            mem_ctx = self._mem_ctx
            if mem_ctx is not None and thread.ct_object is not None:
                # Resuming mid-operation (after a migration):
                # repoint the core's memory-attribution context.
                mem_ctx[core.core_id] = thread.ct_obj_name
        item = thread.pending
        if item is None:
            # Inlined thread.advance(): the engine only steps live
            # threads, so the DONE guard in advance() cannot fire here.
            try:
                item = next(thread.program)
            except StopIteration:
                self._finish_thread(thread, core)
                return
            thread.pending = item
        self.total_steps += 1
        core.steps += 1
        handler = self._dispatch.get(item.__class__)
        if handler is None:
            raise SimulationError(
                f"thread {thread.name} yielded unknown item {item!r}")
        handler(core, thread, item)

    def _finish_thread(self, thread: SimThread, core: Core) -> None:
        thread.state = ThreadState.DONE
        thread.finished_at = core.time
        core.current = None
        if self._mem_ctx is not None:
            self._mem_ctx[core.core_id] = None
        self.scheduler.on_thread_done(thread, core, core.time)
        bus = self._bus
        if bus is not None and bus.wants(ThreadFinished):
            bus.publish(ThreadFinished(core.time, core.core_id,
                                       thread.name))

    # ------------------------------------------------------------------
    # per-item handlers (dispatch-table targets)
    # ------------------------------------------------------------------

    def _do_compute(self, core: Core, thread: SimThread, item: Any) -> None:
        cycles = item.cycles
        if self._speeds is not None and cycles:
            # A faster core retires the same work in fewer cycles.
            cycles = max(1, round(cycles / self._speeds[core.core_id]))
        core.counters.busy_cycles += cycles
        core.time += cycles
        thread.pending = None

    def _do_scan(self, core: Core, thread: SimThread, item: Any) -> None:
        latency = self._mem_scan(core.core_id, item.addr, item.nbytes,
                                 core.time, item.per_line_compute)
        core.counters.busy_cycles += latency
        core.time += latency
        thread.pending = None

    def _do_store(self, core: Core, thread: SimThread, item: Any) -> None:
        latency = self._mem_store(core.core_id, item.addr, core.time)
        core.counters.busy_cycles += latency
        core.time += latency
        thread.pending = None

    def _do_acquire(self, core: Core, thread: SimThread, item: Any) -> None:
        lock = item.lock
        counters = core.counters
        if lock.try_acquire(thread):
            latency = self._mem_store(core.core_id, lock.addr, core.time)
            counters.lock_acquires += 1
            thread.spinning = False
            thread.pending = None
        else:
            latency = (self._mem_load(core.core_id, lock.addr, core.time)
                       + self._spec.spin_backoff)
            counters.lock_spins += 1
            thread.spin_cycles += latency
            if self._c_lock_spins is not None:
                self._c_lock_spins.inc()
            if not thread.spinning:
                # One event per contended acquire, not per retry —
                # retries are counted by the lock_spins metric.
                thread.spinning = True
                bus = self._bus
                if bus is not None and bus.wants(LockContended):
                    bus.publish(LockContended(core.time, core.core_id,
                                              thread.name, lock.name))
            # pending stays set: the acquire retries next step.
        counters.busy_cycles += latency
        core.time += latency

    def _do_release(self, core: Core, thread: SimThread, item: Any) -> None:
        item.lock.release(thread)
        latency = self._mem_store(core.core_id, item.lock.addr, core.time)
        core.counters.busy_cycles += latency
        core.time += latency
        thread.pending = None

    def _do_ct_start(self, core: Core, thread: SimThread, item: Any) -> None:
        self._ct_start(core, thread, item.obj)

    def _do_ct_end(self, core: Core, thread: SimThread, item: Any) -> None:
        self._ct_end(core, thread)

    def _ct_start(self, core: Core, thread: SimThread, obj: Any) -> None:
        snapshot = core.counters.snapshot()
        target = self.scheduler.on_ct_start(thread, obj, core, core.time)
        thread.begin_operation(obj, core.core_id, snapshot, core.time)
        thread.pending = None
        name = None
        bus = self._bus
        if bus is not None and bus.wants(OperationStarted):
            name = getattr(obj, "name", None) or repr(obj)
            bus.publish(OperationStarted(core.time, core.core_id,
                                         thread.name, name))
        mem_ctx = self._mem_ctx
        if mem_ctx is not None:
            if name is None:
                name = getattr(obj, "name", None) or repr(obj)
            thread.ct_obj_name = name
            mem_ctx[core.core_id] = name
        if target is not None and target != core.core_id:
            self._migrate(core, thread, target)

    def _ct_end(self, core: Core, thread: SimThread) -> None:
        # The runtime sees the thread while ct_object / entry snapshot are
        # still set, so it can attribute misses to the object (§4).
        target = self.scheduler.on_ct_end(thread, core, core.time)
        obj = thread.ct_object
        cycles = core.time - thread.ct_started_at
        bus = self._bus
        finished = None
        if bus is not None and bus.wants(OperationFinished):
            # Attribution deltas exist only for an operation that ran
            # on its entry core (``SimThread.ran_on``); after a
            # mid-operation migration the fields stay None.
            dram = remote = mem_stall = spin = None
            if thread.ran_on(core.core_id):
                entry = thread.ct_entry_snapshot
                counters = core.counters
                dram = counters.dram_loads - entry[IDX_DRAM]
                remote = counters.remote_hits - entry[IDX_REMOTE]
                mem_stall = counters.mem_cycles - entry[IDX_MEM]
                spin = thread.spin_cycles - thread.ct_entry_spin
            finished = OperationFinished(
                core.time, core.core_id, thread.name,
                getattr(obj, "name", None) or repr(obj), cycles,
                dram, remote, mem_stall, spin)
        thread.end_operation()
        core.counters.ops_completed += 1
        self.total_ops += 1
        thread.pending = None
        if self._h_oplat is not None:
            self._h_oplat.observe(cycles)
            self._c_ops.inc()
        if finished is not None:
            bus.publish(finished)
        if self._mem_ctx is not None:
            self._mem_ctx[core.core_id] = None
        if target is not None and target != core.core_id:
            self._migrate(core, thread, target)

    def _migrate(self, core: Core, thread: SimThread, target: int) -> None:
        if not 0 <= target < self.machine.n_cores:
            raise SimulationError(
                f"scheduler migrated {thread.name} to invalid core {target}")
        spec = self._spec
        thread.state = ThreadState.MIGRATING
        thread.core = None
        thread.migrations += 1
        core.counters.migrations_out += 1
        core.current = None
        if self._mem_ctx is not None:
            self._mem_ctx[core.core_id] = None
        arrive = core.time + spec.migration_cost
        if spec.poll_interval:
            grid = spec.poll_interval
            arrive = ((arrive + grid - 1) // grid) * grid
        thread.wait_cycles += arrive - core.time
        thread.arrive_at = arrive
        self.total_migrations += 1
        self.memory.interconnect.count_migration(
            core.chip_id, self._spec.chip_of(target))
        self._push(arrive, _KIND_ARRIVAL, (thread, target))
        if self._c_migrations is not None:
            self._c_migrations.inc()
            self._h_miglat.observe(arrive - core.time)
        bus = self._bus
        if bus is not None and bus.wants(MigrationStarted):
            bus.publish(MigrationStarted(core.time, core.core_id,
                                         thread.name, target, arrive))
