"""Green threads: the simulated cooperative threading runtime.

CoreTime provides cooperative user-level threading inside one pthread per
core (§4, Implementation).  :class:`SimThread` is our equivalent: a wrapper
around a generator program with the context the engine and schedulers need
— where the thread lives, what item it is executing, whether it is inside
a CoreTime operation, and per-thread statistics.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Generator, Optional

from repro.errors import SimulationError

_ids = itertools.count()

#: The generator type thread programs must be.
Program = Generator[Any, None, None]


class ThreadState(enum.Enum):
    READY = "ready"          # in some core's run queue
    RUNNING = "running"      # current thread of a core
    MIGRATING = "migrating"  # context in flight between cores
    DONE = "done"            # program finished


class SimThread:
    """One simulated thread of execution."""

    __slots__ = (
        "tid", "name", "program", "state",
        "home_core", "core",
        "pending", "arrive_at",
        "ct_object", "ct_entry_snapshot", "ct_started_at",
        "ct_entry_core", "ct_entry_migrations", "ct_entry_spin",
        "ct_obj_name",
        "ops_completed", "migrations", "spin_cycles", "spinning",
        "wait_cycles",
        "created_at", "finished_at",
        "user",
    )

    def __init__(self, program: Program, name: Optional[str] = None) -> None:
        self.tid = next(_ids)
        self.name = name or f"thread-{self.tid}"
        self.program = program
        self.state = ThreadState.READY
        #: Core the thread was first placed on (its affinity home).
        self.home_core: Optional[int] = None
        #: Core currently responsible for the thread (None while in flight).
        self.core: Optional[int] = None
        #: Item being executed or retried; None means advance the program.
        self.pending: Any = None
        #: While MIGRATING: the cycle the in-flight context lands at.
        #: The invariant checker cross-checks this against the heap's
        #: arrival entry; None whenever the thread is not in flight.
        self.arrive_at: Optional[int] = None
        #: CoreTime bookkeeping: the object of the operation in progress.
        self.ct_object = None
        #: Counter snapshot (a tuple) taken at ct_start for per-object
        #: miss deltas.
        self.ct_entry_snapshot = None
        self.ct_started_at = 0
        #: Where the operation started, and the thread's migration count
        #: and spin-cycle total at that moment: :meth:`ran_on` decides
        #: from them whether a per-operation counter delta is valid (the
        #: thread may have migrated mid-operation), and the engine
        #: measures the spin cycles attributable to the operation.
        self.ct_entry_core: Optional[int] = None
        self.ct_entry_migrations = 0
        self.ct_entry_spin = 0
        #: Display name of ``ct_object``; set only when memory-event
        #: capture needs it (the engine keeps the memory system's
        #: per-core operation context pointed at this string).
        self.ct_obj_name: Optional[str] = None
        self.ops_completed = 0
        self.migrations = 0
        #: Cycles burned spinning on locks.
        self.spin_cycles = 0
        #: True while retrying a contended acquire (the first failed
        #: test-and-set of each acquire emits one LockContended event).
        self.spinning = False
        #: Cycles spent in flight or waiting in run queues.
        self.wait_cycles = 0
        self.created_at = 0
        self.finished_at: Optional[int] = None
        #: Free slot for workload-specific state.
        self.user: Any = None

    @property
    def in_operation(self) -> bool:
        return self.ct_object is not None

    @property
    def done(self) -> bool:
        return self.state is ThreadState.DONE

    def advance(self) -> Any:
        """Resume the program and return its next item.

        Raises ``StopIteration`` when the program finishes; the engine
        translates that into thread completion.
        """
        if self.state is ThreadState.DONE:
            raise SimulationError(f"advancing finished thread {self.name}")
        return next(self.program)

    def begin_operation(self, obj: Any, core_id: int, snapshot: Any,
                        now: int) -> None:
        if self.ct_object is not None:
            raise SimulationError(
                f"thread {self.name}: nested ct_start on {obj!r} while "
                f"operating on {self.ct_object!r} (CoreTime operations "
                f"do not nest)")
        self.ct_object = obj
        self.ct_entry_core = core_id
        self.ct_entry_snapshot = snapshot
        self.ct_entry_migrations = self.migrations
        self.ct_entry_spin = self.spin_cycles
        self.ct_started_at = now

    def ran_on(self, core_id: int) -> bool:
        """Has the operation in progress run from its ``ct_start`` on
        ``core_id`` without migrating?  Only then is a delta of that
        core's counters against ``ct_entry_snapshot`` the operation's
        own: after a migration the snapshot belongs to another bank."""
        return (self.ct_entry_core == core_id
                and self.ct_entry_migrations == self.migrations)

    def end_operation(self) -> Any:
        if self.ct_object is None:
            raise SimulationError(
                f"thread {self.name}: ct_end without matching ct_start")
        obj = self.ct_object
        self.ct_object = None
        self.ct_entry_snapshot = None
        self.ct_entry_core = None
        self.ct_obj_name = None
        self.ops_completed += 1
        return obj

    def __repr__(self) -> str:
        return (f"SimThread({self.name}, {self.state.value}, "
                f"core={self.core}, ops={self.ops_completed})")
