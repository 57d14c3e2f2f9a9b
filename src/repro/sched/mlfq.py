"""Multi-level feedback queue with a decaying CPU penalty addon.

Classic MLFQ demotes CPU hogs; the penalty addon makes the demotion
*forgiving*.  Every completed operation adds its service cycles to the
thread's penalty; the penalty decays by a fixed factor every
``decay_interval`` cycles, so a thread that burned the CPU long ago
climbs back up.  A thread's level is its penalty bucket (one bucket per
``4 * quantum`` of penalty, clamped to ``levels``); level 0 is the best.

At an operation boundary the running thread is preempted when a waiter
sits at a strictly better level, or when it has consumed its level's
slice (``quantum << level`` — lower levels run longer, as in classic
MLFQ).  Among waiters, the first (oldest) at the best level runs next:
FIFO within a level.

Decay is applied lazily on the ``decay_interval`` epoch grid inside
``on_ct_end``/``on_thread_done``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ConfigError
from repro.sched.timeshare import TimeSharingScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.core import Core
    from repro.threads.thread import SimThread


class MLFQScheduler(TimeSharingScheduler):
    """Penalty-bucketed feedback levels with periodic forgiveness."""

    name = "mlfq"

    def __init__(self, quantum: int = 2500, levels: int = 3,
                 decay: float = 0.5, decay_interval: int = 50_000) -> None:
        super().__init__(quantum=quantum)
        if levels < 1:
            raise ConfigError("mlfq: need at least one level")
        if not 0.0 <= decay < 1.0:
            raise ConfigError("mlfq: decay must be in [0, 1)")
        if decay_interval <= 0:
            raise ConfigError("mlfq: decay interval must be positive")
        self.levels = levels
        self.decay = decay
        self.decay_interval = decay_interval
        self._penalty: Dict[int, float] = {}
        self._decay_epoch = 0

    # ------------------------------------------------------------------
    # penalty bookkeeping
    # ------------------------------------------------------------------

    def _apply_decay(self, now: int) -> None:
        epoch = now // self.decay_interval
        steps = epoch - self._decay_epoch
        if steps > 0:
            factor = self.decay ** steps
            for tid in self._penalty:
                self._penalty[tid] *= factor
            self._decay_epoch = epoch

    def _level(self, tid: int) -> int:
        bucket = int(self._penalty.get(tid, 0.0) // (4 * self.quantum))
        return bucket if bucket < self.levels else self.levels - 1

    # ------------------------------------------------------------------
    # decision points
    # ------------------------------------------------------------------

    def on_ct_end(self, thread: "SimThread", core: "Core",
                  now: int) -> Optional[int]:
        self._apply_decay(now)
        return super().on_ct_end(thread, core, now)

    def _account(self, thread: "SimThread", core: "Core", now: int,
                 op_cycles: int) -> None:
        self._penalty[thread.tid] = (
            self._penalty.get(thread.tid, 0.0) + op_cycles)

    def _should_preempt(self, thread: "SimThread", core: "Core",
                        now: int) -> bool:
        level = self._level(thread.tid)
        if any(self._level(waiting.tid) < level
               for waiting in core.runqueue):
            return True
        return (self._slice_used.get(thread.tid, 0)
                >= (self.quantum << level))

    def _pick_next(self, core: "Core") -> Optional["SimThread"]:
        best = None
        best_level = None
        for waiting in core.runqueue:
            level = self._level(waiting.tid)
            if best_level is None or level < best_level:
                best, best_level = waiting, level
                if level == 0:
                    break
        return best

    def on_thread_done(self, thread: "SimThread", core: "Core",
                       now: int) -> None:
        self._apply_decay(now)
        super().on_thread_done(thread, core, now)
        self._penalty.pop(thread.tid, None)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        stats = super().stats()
        stats["decay_epochs"] = self._decay_epoch
        return stats
