"""The traditional thread scheduler — the paper's "without CoreTime".

Threads are assigned to cores round-robin (or pinned explicitly, matching
``sched_setaffinity`` in the paper's setup) and never move.  CoreTime
annotations are inert: ``ct_start`` does no table lookup and no migration,
so the baseline runs the same Figure 3 program as CoreTime and each
operation costs what the Figure 1 loop costs.  On-chip memory is managed
implicitly by the caches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sched.base import SchedulerRuntime

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread


class ThreadScheduler(SchedulerRuntime):
    """Keep every core busy with a pinned thread; ignore objects."""

    name = "thread"

    def __init__(self) -> None:
        super().__init__()
        self._next_core = 0
        self.placements = 0

    def place_thread(self, thread: "SimThread") -> int:
        core_id = self._next_core % self.machine.n_cores
        self._next_core += 1
        self.placements += 1
        return self._check_core(core_id)

    def stats(self) -> dict:
        return {"placements": self.placements}
