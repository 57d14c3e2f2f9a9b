"""Scheduler runtime interface.

Every scheduler — the traditional thread scheduler, its work-stealing and
thread-clustering variants, and CoreTime itself — implements
:class:`SchedulerRuntime`.  The engine calls into the runtime at exactly
the points where the paper's schedulers act:

* thread creation (initial placement),
* ``ct_start`` (may redirect the operation to another core),
* ``ct_end`` (may send the thread home),
* core idleness (may steal work).

Keeping one interface makes "with CoreTime" vs "without CoreTime" a
one-argument change in every benchmark, as in Figure 4.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

from repro.cpu.machine import Machine
from repro.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.core import Core
    from repro.threads.thread import SimThread


class SchedulerRuntime(abc.ABC):
    """Decision points shared by all schedulers."""

    #: Short identifier used in reports ("thread", "coretime", ...).
    name: str = "abstract"

    def __init__(self) -> None:
        self.machine: Optional[Machine] = None
        #: Observability pipeline, set by the simulator before ``bind``;
        #: None when telemetry is disabled.  Schedulers that publish must
        #: gate on ``self.obs is not None`` and ``obs.bus.wants(...)``.
        self.obs = None

    def bind(self, machine: Machine) -> None:
        """Attach to a machine; called once by the simulator."""
        self.machine = machine
        self._on_bind()

    def _on_bind(self) -> None:
        """Hook for subclasses needing per-machine state."""

    def _check_core(self, core_id: int) -> int:
        machine = self.machine
        if machine is None:
            raise SchedulerError(f"{self.name}: not bound to a machine")
        if not 0 <= core_id < machine.n_cores:
            raise SchedulerError(
                f"{self.name}: invalid core id {core_id} "
                f"(machine has {machine.n_cores})")
        return core_id

    # ------------------------------------------------------------------
    # decision points
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def place_thread(self, thread: "SimThread") -> int:
        """Initial core for a new thread."""

    def on_ct_start(self, thread: "SimThread", obj: object, core: "Core",
                    now: int) -> Optional[int]:
        """Target core for the operation, or None to run locally.

        A traditional scheduler ignores annotations entirely (the paper's
        Figure 1 program); CoreTime overrides this with the object-table
        lookup of §4.
        """
        return None

    def on_ct_end(self, thread: "SimThread", core: "Core",
                  now: int) -> Optional[int]:
        """Optionally migrate the thread after an operation completes.

        Called while the thread's operation state (``ct_object``, the
        entry snapshot ``ct_entry_snapshot``, a tuple in
        :data:`~repro.mem.counters.COUNTER_FIELDS` order) is still set,
        so runtimes can account the finished operation; a delta of
        ``core.counters`` against the snapshot is the operation's own
        only if ``thread.ran_on(core.core_id)``.
        """
        return None

    def on_idle(self, core: "Core", now: int) -> Optional["SimThread"]:
        """Offer an idle core a thread (work stealing).  The returned
        thread must already be removed from wherever it was queued."""
        return None

    def on_thread_done(self, thread: "SimThread", core: "Core",
                       now: int) -> None:
        """Notification that a thread's program finished."""

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Scheduler-specific statistics for reports (override freely)."""
        return {}
