"""Shared mechanics for cooperative time-sharing policies.

The engine is cooperative: a scheduler only runs inside its callbacks
(placement, ``ct_start``/``ct_end``, idleness).  Classic preemptive
policies — round-robin, CFS, SJF, MLFQ — therefore preempt at
*operation boundaries*: ``on_ct_end`` is the simulated equivalent of a
syscall return.

Preemption uses exactly the engine's own yield mechanics
(:meth:`Simulator._do_yield`): clear ``core.current`` and requeue the
thread at the tail of the core's run queue, so the engine picks the
queue head on the core's next step.  Which thread runs next is
controlled by reordering the FIFO — the policy's pick is moved to the
head with ``remove`` + ``push_front`` — never by touching engine state
directly.

Slice accounting is in *observed service cycles*: each ``on_ct_end``
adds the finished operation's duration (``now - ct_started_at``, which
includes memory stalls and lock spinning — cycles the thread burned on
the core) to the thread's current slice.  Wall-clock time spent waiting
in the run queue is not charged.  Subclasses decide when a slice is
exhausted (:meth:`_should_preempt`) and who runs next (:meth:`_pick_next`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ConfigError
from repro.obs.events import SchedDecision
from repro.sched.base import SchedulerRuntime

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.core import Core
    from repro.threads.thread import SimThread


class TimeSharingScheduler(SchedulerRuntime):
    """Base class for boundary-preempting time-sharing policies."""

    name = "timeshare"

    def __init__(self, quantum: int = 2500) -> None:
        super().__init__()
        if quantum <= 0:
            raise ConfigError(f"{self.name}: quantum must be positive")
        #: Service cycles a thread may accumulate before an operation
        #: boundary preempts it (when another thread is waiting).
        self.quantum = quantum
        self._slice_used: Dict[int, int] = {}
        self._next_core = 0
        self.placements = 0
        self.preemptions = 0
        #: Event bus (None until bound with observability attached).
        self._bus = None

    def _on_bind(self) -> None:
        if self.obs is not None:
            self._bus = self.obs.bus

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------

    def _account(self, thread: "SimThread", core: "Core", now: int,
                 op_cycles: int) -> None:
        """Charge one finished operation (vruntime, service estimate...)."""

    def _should_preempt(self, thread: "SimThread", core: "Core",
                        now: int) -> bool:
        """Slice-exhaustion test; only consulted when a thread waits."""
        return self._slice_used.get(thread.tid, 0) >= self.quantum

    def _pick_next(self, core: "Core") -> Optional["SimThread"]:
        """Choose among the waiting threads (queue order = FIFO age);
        None keeps the queue head.  Called *before* the preempted thread
        is requeued, so the pick is always a previously-waiting thread."""
        return None

    # ------------------------------------------------------------------
    # decision points
    # ------------------------------------------------------------------

    def place_thread(self, thread: "SimThread") -> int:
        core_id = self._next_core % self.machine.n_cores
        self._next_core += 1
        self.placements += 1
        return self._check_core(core_id)

    def on_ct_start(self, thread: "SimThread", obj: object, core: "Core",
                    now: int) -> Optional[int]:
        bus = self._bus
        if bus is not None and bus.wants(SchedDecision):
            bus.publish(SchedDecision(
                now, core.core_id, thread.name,
                getattr(obj, "name", None) or repr(obj), None))
        return None

    def on_ct_end(self, thread: "SimThread", core: "Core",
                  now: int) -> Optional[int]:
        tid = thread.tid
        op_cycles = now - thread.ct_started_at
        self._slice_used[tid] = self._slice_used.get(tid, 0) + op_cycles
        self._account(thread, core, now, op_cycles)
        if core.runqueue and self._should_preempt(thread, core, now):
            self._preempt(thread, core, now)
        return None

    def _preempt(self, thread: "SimThread", core: "Core",
                 now: int) -> None:
        chosen = self._pick_next(core)
        # The engine's own yield mechanics: the core resumes by popping
        # the queue head on its next step.
        core.current = None
        core.runqueue.push(thread)
        self._slice_used[thread.tid] = 0
        if chosen is not None:
            queue = core.runqueue
            if next(iter(queue)) is not chosen:
                queue.remove(chosen)
                queue.push_front(chosen)
        self.preemptions += 1

    def on_thread_done(self, thread: "SimThread", core: "Core",
                       now: int) -> None:
        self._slice_used.pop(thread.tid, None)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def describe(self) -> str:
        return f"{self.name}(quantum={self.quantum})"

    def stats(self) -> dict:
        return {"placements": self.placements,
                "preemptions": self.preemptions}

    # ------------------------------------------------------------------
    # shared placement helper
    # ------------------------------------------------------------------

    def _least_loaded_core(self) -> int:
        """Lowest-id core with the fewest runnable threads (deterministic
        tie-break by core id)."""
        cores = self.machine.cores
        best = cores[0]
        for core in cores[1:]:
            if core.load < best.load:
                best = core
        return best.core_id
