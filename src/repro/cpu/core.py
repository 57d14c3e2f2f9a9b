"""A simulated CPU core.

A core owns a local clock (``time``, in cycles), a run queue of cooperative
threads, and a reference to its event-counter bank.  The engine advances a
core by executing one instruction item of its current thread and moving the
clock by the item's cost; cores therefore progress at different rates, and
a heap in the engine keeps global order.
"""

from __future__ import annotations

from typing import Optional

from repro.mem.counters import CoreCounters
from repro.threads.runqueue import RunQueue
from repro.threads.thread import SimThread


class Core:
    """One core of the simulated machine."""

    __slots__ = ("core_id", "chip_id", "time", "runqueue", "current",
                 "counters", "idle_since", "in_heap", "steps")

    def __init__(self, core_id: int, chip_id: int,
                 counters: CoreCounters) -> None:
        self.core_id = core_id
        self.chip_id = chip_id
        #: Local clock, in cycles.
        self.time = 0
        self.runqueue = RunQueue(core_id)
        #: Thread currently executing, if any.
        self.current: Optional[SimThread] = None
        self.counters = counters
        #: Clock value when the core last became idle (None = not idle).
        #: Cores are born idle; the first enqueue ends the period.
        self.idle_since: Optional[int] = 0
        #: True while a step event for this core sits in the engine heap.
        self.in_heap = False
        #: Instruction items executed (engine statistics).
        self.steps = 0

    @property
    def load(self) -> int:
        """Runnable threads on this core (queue plus current)."""
        return len(self.runqueue) + (1 if self.current is not None else 0)

    def note_idle(self) -> None:
        if self.idle_since is None:
            self.idle_since = self.time

    def note_woken(self, at: int) -> None:
        """Account idle time ending at ``at`` and move the clock there."""
        if self.idle_since is not None:
            if at > self.idle_since:
                self.counters.idle_cycles += at - self.idle_since
            self.idle_since = None
        if at > self.time:
            self.time = at

    def settle_idle(self, horizon: int) -> None:
        """Charge idle time up to ``horizon`` at the end of a run."""
        if self.idle_since is not None and horizon > self.idle_since:
            self.counters.idle_cycles += horizon - self.idle_since
            self.idle_since = horizon

    def __repr__(self) -> str:
        return (f"Core({self.core_id}, chip={self.chip_id}, t={self.time}, "
                f"load={self.load})")
