"""Shortest-job-first on per-thread observed service time.

True SJF needs an oracle for operation lengths; the practical version
predicts each thread's next burst from its history.  Here the predictor
is an exponentially-weighted moving average of the thread's completed
operation durations (service cycles, including memory stalls and lock
spins — what the operation actually cost the core).  At a quantum
expiry the waiter with the smallest predicted burst runs next; threads
with no history predict zero, so newcomers get measured immediately
rather than starved.

Placement is least-loaded (lowest core id on ties).  Like every
time-sharing policy here, preemption happens at operation boundaries —
see :mod:`repro.sched.timeshare` for why that is the cooperative
engine's preemption point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ConfigError
from repro.sched.timeshare import TimeSharingScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.core import Core
    from repro.threads.thread import SimThread


class ShortestJobFirstScheduler(TimeSharingScheduler):
    """Run the thread with the smallest predicted service burst."""

    name = "sjf"

    def __init__(self, quantum: int = 2500, alpha: float = 0.5) -> None:
        super().__init__(quantum=quantum)
        if not 0.0 < alpha <= 1.0:
            raise ConfigError("sjf: alpha must be in (0, 1]")
        #: EWMA weight of the most recent observation.
        self.alpha = alpha
        self._estimate: Dict[int, float] = {}

    def place_thread(self, thread: "SimThread") -> int:
        self.placements += 1
        return self._check_core(self._least_loaded_core())

    def _account(self, thread: "SimThread", core: "Core", now: int,
                 op_cycles: int) -> None:
        previous = self._estimate.get(thread.tid)
        if previous is None:
            self._estimate[thread.tid] = float(op_cycles)
        else:
            self._estimate[thread.tid] = (
                self.alpha * op_cycles + (1.0 - self.alpha) * previous)

    def _pick_next(self, core: "Core") -> Optional["SimThread"]:
        best = None
        best_key = None
        for position, waiting in enumerate(core.runqueue):
            key = (self._estimate.get(waiting.tid, 0.0), position)
            if best_key is None or key < best_key:
                best, best_key = waiting, key
        return best

    def on_thread_done(self, thread: "SimThread", core: "Core",
                       now: int) -> None:
        super().on_thread_done(thread, core, now)
        self._estimate.pop(thread.tid, None)
