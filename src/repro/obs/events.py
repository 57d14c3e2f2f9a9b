"""Typed observability events.

Every interesting thing the simulator does is described by one of the
event classes below: thread lifecycle, scheduling decisions, operation
boundaries, object (re)assignment, rebalance rounds, cache traffic and
lock contention.  Events are plain ``__slots__`` classes (cheap to
construct, no dict) carrying only primitive fields — names, core ids and
cycle timestamps — so they can be buffered, serialised and exported
without keeping simulator objects alive.  Each concrete ``__init__``
assigns every slot directly instead of chaining ``super().__init__``:
events are constructed tens of thousands of times per run, and the
flattened form is one call frame instead of three.

The zero-overhead contract: publishers must *not* construct an event
unless :meth:`repro.obs.bus.EventBus.wants` says someone is listening.
``EVENT_KINDS`` maps the short ``kind`` strings (used in JSONL dumps and
the flight recorder) back to classes.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, Optional, Tuple, Type


class Event:
    """Base class: a timestamped simulator event."""

    __slots__ = ("ts",)
    kind = "event"
    #: Slot names, base class first: the keys of :meth:`as_dict` after
    #: ``kind``.  Set once per class, when the class is created.
    fields: ClassVar[Tuple[str, ...]] = ("ts",)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.fields = tuple(name for klass in reversed(cls.__mro__)
                           for name in vars(klass).get("__slots__", ()))

    def __init__(self, ts: int) -> None:
        self.ts = ts

    def as_dict(self) -> Dict[str, Any]:
        """Primitive dict form (JSONL export, flight-recorder dumps)."""
        data: Dict[str, Any] = {"kind": self.kind}
        for name in self.fields:
            data[name] = getattr(self, name)
        return data

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}"
                           for n in self.fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n)
                   for n in self.fields)


class RunMarker(Event):
    """A new simulator attached to the shared observability pipeline.

    Exporters split the event stream on these markers, so several runs
    (e.g. fig2's thread-scheduler and CoreTime passes) become separate
    processes in one Chrome trace.
    """

    __slots__ = ("label",)
    kind = "run"

    def __init__(self, ts: int, label: str) -> None:
        self.ts = ts
        self.label = label


class CoreEvent(Event):
    """Base for events that happen on a specific core."""

    __slots__ = ("core",)

    def __init__(self, ts: int, core: int) -> None:
        self.ts = ts
        self.core = core


class ThreadSpawned(CoreEvent):
    __slots__ = ("thread",)
    kind = "spawn"

    def __init__(self, ts: int, core: int, thread: str) -> None:
        self.ts = ts
        self.core = core
        self.thread = thread


class ThreadFinished(CoreEvent):
    __slots__ = ("thread",)
    kind = "done"

    def __init__(self, ts: int, core: int, thread: str) -> None:
        self.ts = ts
        self.core = core
        self.thread = thread


class ThreadArrived(CoreEvent):
    """A migrating thread's context arrived at its target core."""

    __slots__ = ("thread",)
    kind = "arrive"

    def __init__(self, ts: int, core: int, thread: str) -> None:
        self.ts = ts
        self.core = core
        self.thread = thread


class MigrationStarted(CoreEvent):
    """A thread left ``core`` for ``target``; it lands at ``arrive_ts``."""

    __slots__ = ("thread", "target", "arrive_ts")
    kind = "migrate"

    def __init__(self, ts: int, core: int, thread: str, target: int,
                 arrive_ts: int) -> None:
        self.ts = ts
        self.core = core
        self.thread = thread
        self.target = target
        self.arrive_ts = arrive_ts


class SchedDecision(CoreEvent):
    """Outcome of a ``ct_start`` table lookup.

    ``target`` is None when the operation runs locally (object unassigned
    or already home); otherwise the core the operation migrates to.
    """

    __slots__ = ("thread", "obj", "target")
    kind = "sched"

    def __init__(self, ts: int, core: int, thread: str, obj: str,
                 target: Optional[int]) -> None:
        self.ts = ts
        self.core = core
        self.thread = thread
        self.obj = obj
        self.target = target


class OperationStarted(CoreEvent):
    __slots__ = ("thread", "obj")
    kind = "op_start"

    def __init__(self, ts: int, core: int, thread: str, obj: str) -> None:
        self.ts = ts
        self.core = core
        self.thread = thread
        self.obj = obj


class OperationFinished(CoreEvent):
    """An annotated operation completed on ``core`` after ``cycles``.

    The four attribution fields carry the per-operation counter deltas
    the offline analyzer (:mod:`repro.obs.profile`) breaks costs down
    with: DRAM line fetches, remote-cache hits, memory-stall cycles and
    lock-spin cycles measured between ``ct_start`` and ``ct_end``.  They
    are None when the operation migrated mid-flight (the entry snapshot
    belongs to a different core, so the delta would be garbage) — the
    analyzer counts such operations separately.
    """

    __slots__ = ("thread", "obj", "cycles", "dram", "remote", "mem_stall",
                 "spin")
    kind = "op_end"

    def __init__(self, ts: int, core: int, thread: str, obj: str,
                 cycles: int, dram: Optional[int] = None,
                 remote: Optional[int] = None,
                 mem_stall: Optional[int] = None,
                 spin: Optional[int] = None) -> None:
        self.ts = ts
        self.core = core
        self.thread = thread
        self.obj = obj
        self.cycles = cycles
        self.dram = dram
        self.remote = remote
        self.mem_stall = mem_stall
        self.spin = spin


class ObjectAssigned(CoreEvent):
    """CoreTime assigned ``obj`` to ``core``'s cache."""

    __slots__ = ("obj",)
    kind = "assign"

    def __init__(self, ts: int, core: int, obj: str) -> None:
        self.ts = ts
        self.core = core
        self.obj = obj


class ObjectMoved(CoreEvent):
    """The rebalancer moved ``obj`` from ``core`` to ``target``."""

    __slots__ = ("obj", "target", "heat")
    kind = "move"

    def __init__(self, ts: int, core: int, obj: str, target: int,
                 heat: float) -> None:
        self.ts = ts
        self.core = core
        self.obj = obj
        self.target = target
        self.heat = heat


class RebalanceRound(Event):
    """One monitoring-window rebalance pass finished (``moves`` moves)."""

    __slots__ = ("moves",)
    kind = "rebalance"

    def __init__(self, ts: int, moves: int) -> None:
        self.ts = ts
        self.moves = moves


class CacheEvicted(CoreEvent):
    """A line left the on-chip hierarchy (dropped from ``level``).

    ``obj`` names the object of the annotated operation running on the
    evicting core at that moment (None outside an operation), so the
    analyzer can attribute capacity pressure to the object being
    manipulated — the paper's §4 miss-attribution story, offline.
    """

    __slots__ = ("level", "line", "obj")
    kind = "evict"

    def __init__(self, ts: int, core: int, level: str, line: int,
                 obj: Optional[str] = None) -> None:
        self.ts = ts
        self.core = core
        self.level = level
        self.line = line
        self.obj = obj


class CacheInvalidated(CoreEvent):
    """A store on ``core`` invalidated ``copies`` remote copies of
    ``line``.

    ``obj`` names the object of the operation issuing the store (None
    outside an annotated operation); see :class:`CacheEvicted`.
    """

    __slots__ = ("line", "copies", "obj")
    kind = "invalidate"

    def __init__(self, ts: int, core: int, line: int, copies: int,
                 obj: Optional[str] = None) -> None:
        self.ts = ts
        self.core = core
        self.line = line
        self.copies = copies
        self.obj = obj


class LockContended(CoreEvent):
    """A thread hit a held spin-lock and started spinning.

    Emitted once per contended acquire (the first failed test-and-set),
    not per retry — the ``sim.lock_spins`` counter tracks every retry.
    """

    __slots__ = ("thread", "lock")
    kind = "lock_spin"

    def __init__(self, ts: int, core: int, thread: str, lock: str) -> None:
        self.ts = ts
        self.core = core
        self.thread = thread
        self.lock = lock


class FaultInjected(Event):
    """The verification layer injected a deterministic fault.

    Published by :class:`repro.verify.faults.FaultPlan` right before it
    mutates simulator state, so the flight recorder shows exactly what
    was broken (and when) next to the invariant violation that should
    follow it in a mutation self-test.
    """

    __slots__ = ("fault", "detail")
    kind = "fault"

    def __init__(self, ts: int, fault: str, detail: str) -> None:
        self.ts = ts
        self.fault = fault
        self.detail = detail


class SweepCaseStarted(Event):
    """repro.sweep dispatched one grid cell to a worker.

    ``ts`` is the dispatch sequence number, not a simulated cycle — a
    sweep spans many simulators with unrelated clocks, so the only
    meaningful order is dispatch order (deterministic for ``workers=0``).
    """

    __slots__ = ("case", "scheduler", "workload", "seed")
    kind = "sweep_start"

    def __init__(self, ts: int, case: str, scheduler: str, workload: str,
                 seed: Optional[int]) -> None:
        self.ts = ts
        self.case = case
        self.scheduler = scheduler
        self.workload = workload
        self.seed = seed


class SweepCaseFinished(Event):
    """One grid cell completed; ``kops`` is its measured throughput."""

    __slots__ = ("case", "scheduler", "workload", "kops", "cached")
    kind = "sweep_end"

    def __init__(self, ts: int, case: str, scheduler: str, workload: str,
                 kops: float, cached: bool = False) -> None:
        self.ts = ts
        self.case = case
        self.scheduler = scheduler
        self.workload = workload
        self.kops = kops
        self.cached = cached


class SweepCaseFailed(Event):
    """One grid cell crashed, timed out or raised; the sweep continues."""

    __slots__ = ("case", "scheduler", "workload", "error")
    kind = "sweep_fail"

    def __init__(self, ts: int, case: str, scheduler: str, workload: str,
                 error: str) -> None:
        self.ts = ts
        self.case = case
        self.scheduler = scheduler
        self.workload = workload
        self.error = error


class WorkerJoined(Event):
    """A sweep worker connected to the distributed coordinator.

    ``ts`` is the coordinator's dispatch sequence number (see
    :class:`SweepCaseStarted`); ``worker`` is the worker's self-reported
    name (``host-pid`` by default, ``local-N`` for pool workers).
    """

    __slots__ = ("worker",)
    kind = "worker_join"

    def __init__(self, ts: int, worker: str) -> None:
        self.ts = ts
        self.worker = worker


class WorkerLost(Event):
    """A sweep worker disconnected, went silent or was kicked.

    ``leases`` counts the leases reclaimed from it; each reclaimed lease
    also gets its own :class:`LeaseExpired` event, so the feed shows both
    the lost fleet member and every cell that went back in the queue.
    """

    __slots__ = ("worker", "leases")
    kind = "worker_lost"

    def __init__(self, ts: int, worker: str, leases: int) -> None:
        self.ts = ts
        self.worker = worker
        self.leases = leases


class LeaseExpired(Event):
    """A leased cell was reclaimed from its worker and requeued (or,
    past the retry budget, recorded as failed).

    ``reason`` distinguishes a heartbeat TTL expiry (``"expired"``), a
    lost connection (``"worker lost"``) and a per-case timeout kick
    (``"timeout"``); ``attempt`` is the attempt that just died.
    """

    __slots__ = ("case", "worker", "attempt", "reason")
    kind = "lease_expired"

    def __init__(self, ts: int, case: str, worker: str, attempt: int,
                 reason: str) -> None:
        self.ts = ts
        self.case = case
        self.worker = worker
        self.attempt = attempt
        self.reason = reason


class InvariantViolated(Event):
    """A machine-wide invariant failed its periodic check.

    Published by :class:`repro.verify.invariants.InvariantChecker` just
    before it raises, so the violation itself is the last record in the
    flight ring that gets drained into the exception.
    """

    __slots__ = ("rule", "detail")
    kind = "invariant"

    def __init__(self, ts: int, rule: str, detail: str) -> None:
        self.ts = ts
        self.rule = rule
        self.detail = detail


#: Control-plane events: cheap enough to record on every run with
#: observability enabled (at most a few per operation).
CONTROL_EVENTS: Tuple[Type[Event], ...] = (
    RunMarker, ThreadSpawned, ThreadFinished, ThreadArrived,
    MigrationStarted, SchedDecision, OperationStarted, OperationFinished,
    ObjectAssigned, ObjectMoved, RebalanceRound, LockContended,
    FaultInjected, InvariantViolated,
    SweepCaseStarted, SweepCaseFinished, SweepCaseFailed,
    WorkerJoined, WorkerLost, LeaseExpired,
)

#: Memory-system events: one per eviction/invalidation, far hotter than
#: the control plane; recorded only when explicitly requested
#: (``Observability(capture_memory=True)``).
MEMORY_EVENTS: Tuple[Type[Event], ...] = (CacheEvicted, CacheInvalidated)

ALL_EVENTS: Tuple[Type[Event], ...] = CONTROL_EVENTS + MEMORY_EVENTS

EVENT_KINDS: Dict[str, Type[Event]] = {e.kind: e for e in ALL_EVENTS}
