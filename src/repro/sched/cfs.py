"""CFS-style fair scheduling on per-thread virtual runtime.

Each thread accumulates *virtual runtime*: the service cycles of every
operation it completes (all threads weigh the same — the simulated
programs have no niceness).  At an operation boundary the running
thread is preempted when its vruntime has pulled more than one
``granularity`` (the base class ``quantum``) ahead of the most-starved
waiter, and the waiter with the minimum vruntime runs next — the
red-black-tree pick, done by reordering the FIFO.

Threads entering late start at the pack's minimum vruntime (as in CFS),
so a newcomer is favoured but cannot monopolize the core.  Placement is
least-loaded with a lowest-core-id tie-break.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.sched.timeshare import TimeSharingScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.core import Core
    from repro.threads.thread import SimThread


class CFSScheduler(TimeSharingScheduler):
    """Fair share by minimum virtual runtime."""

    name = "cfs"

    def __init__(self, granularity: int = 2500) -> None:
        super().__init__(quantum=granularity)
        self._vruntime: Dict[int, int] = {}

    def _vrt(self, tid: int) -> int:
        value = self._vruntime.get(tid)
        if value is None:
            # Late arrivals start at the pack minimum, as in CFS.
            value = min(self._vruntime.values(), default=0)
            self._vruntime[tid] = value
        return value

    def place_thread(self, thread: "SimThread") -> int:
        self.placements += 1
        return self._check_core(self._least_loaded_core())

    def _account(self, thread: "SimThread", core: "Core", now: int,
                 op_cycles: int) -> None:
        self._vruntime[thread.tid] = self._vrt(thread.tid) + op_cycles

    def _should_preempt(self, thread: "SimThread", core: "Core",
                        now: int) -> bool:
        most_starved = min(self._vrt(waiting.tid)
                           for waiting in core.runqueue)
        return self._vrt(thread.tid) > most_starved + self.quantum

    def _pick_next(self, core: "Core") -> Optional["SimThread"]:
        best = None
        best_key = None
        for position, waiting in enumerate(core.runqueue):
            key = (self._vrt(waiting.tid), position)
            if best_key is None or key < best_key:
                best, best_key = waiting, key
        return best

    def on_thread_done(self, thread: "SimThread", core: "Core",
                       now: int) -> None:
        super().on_thread_done(thread, core, now)
        self._vruntime.pop(thread.tid, None)
