"""CoreTime: the O2 scheduler runtime (§4 of the paper).

``ct_start(o)`` performs a table lookup; if the object is assigned to a
core, the thread migrates there, otherwise the operation runs locally
while the runtime measures its cache misses.  At each monitoring tick,
objects whose operations miss a lot are packed into the per-core cache
budgets, most popular first, by :func:`repro.core.packing.place` (greedy
first fit by default); per-core counters drive periodic rebalancing.

:class:`CoreTimeScheduler` plugs into the engine through the common
:class:`~repro.sched.base.SchedulerRuntime` interface, so any benchmark
runs "with CoreTime" by swapping the scheduler argument.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.clustering import AffinityTracker
from repro.core.monitor import Monitor
from repro.core.object_table import CtObject, ObjectTable
from repro.core.packing import (assignment_key, check_policy, make_budgets,
                                place)
from repro.core.policies import LfuReplacement, ReplicationPolicy
from repro.core.rebalancer import Rebalancer
from repro.errors import SchedulerError
from repro.mem.counters import operation_misses
from repro.obs.events import (ObjectAssigned, ObjectMoved, RebalanceRound,
                              SchedDecision)
from repro.sched.base import SchedulerRuntime

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.core import Core
    from repro.threads.thread import SimThread


@dataclass(frozen=True)
class CoreTimeConfig:
    """Tunables of the CoreTime runtime.

    Defaults follow the paper's preliminary design: first-fit packing, no
    replication, no replacement policy, threads stay where an operation
    left them (migration is paid only when the next object demands it).
    """

    #: Expensive misses (remote + DRAM loads) per operation above which an
    #: object is "expensive to fetch" and gets assigned to a cache.
    miss_threshold: float = 8.0
    #: Decayed window operations observed before deciding an object's
    #: fate (fractional: window statistics decay instead of resetting).
    min_samples: float = 2.0
    #: Simulated cycles charged for the ct_start table lookup.
    lookup_cost: int = 20
    #: Cycles between monitoring windows (counter sampling + rebalance).
    monitor_interval: int = 200_000
    #: Per-window exponential decay applied to object heat.
    heat_decay: float = 0.5
    #: Fraction of the per-core cache budget packing may fill.
    headroom: float = 0.9
    #: Packing policy (:data:`repro.core.packing.POLICIES`): first_fit
    #: (the paper's), balanced or hash.
    packing: str = "first_fit"
    #: Send a migrated thread back to its home core at ct_end — the
    #: paper's protocol ("sets a flag that indicates to the original core
    #: that the operation is complete").  Without it, threads drift onto
    #: the cores hosting assigned objects and the rest of the machine
    #: idles.
    return_home: bool = True
    #: Enable periodic rebalancing (§4's pathology repair).
    rebalance: bool = True
    overload_idle_frac: float = 0.05
    underload_idle_frac: float = 0.25
    rebalance_slack: float = 0.25
    #: §6.2 policies (off by default, as in the preliminary design).
    replicate_read_only: bool = False
    replication_heat_factor: float = 4.0
    max_replicas: int = 4
    lfu_replacement: bool = False
    lfu_margin: float = 1.5
    auto_cluster: bool = False
    auto_cluster_threshold: int = 32
    #: §6.2 fairness: no single owner may occupy more than this fraction
    #: of the total packable cache budget (1.0 = no limit).  Objects
    #: without an owner are unconstrained.
    per_owner_budget_frac: float = 1.0

    def replace(self, **changes: object) -> "CoreTimeConfig":
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


class CoreTimeScheduler(SchedulerRuntime):
    """The O2 scheduler: schedules objects to caches, operations to
    objects."""

    name = "coretime"

    def __init__(self, config: Optional[CoreTimeConfig] = None) -> None:
        super().__init__()
        self.config = config or CoreTimeConfig()
        check_policy(self.config.packing)
        self.table = ObjectTable()
        self.monitor: Optional[Monitor] = None
        self.rebalancer = Rebalancer(
            overload_idle_frac=self.config.overload_idle_frac,
            underload_idle_frac=self.config.underload_idle_frac,
            slack=self.config.rebalance_slack,
        )
        self.replication = ReplicationPolicy(
            enabled=self.config.replicate_read_only,
            heat_factor=self.config.replication_heat_factor,
            max_replicas=self.config.max_replicas,
        )
        self.replacement = LfuReplacement(
            enabled=self.config.lfu_replacement,
            margin=self.config.lfu_margin,
        )
        self.affinity = (AffinityTracker(self.config.auto_cluster_threshold)
                         if self.config.auto_cluster else None)
        self.budgets: list = []
        self._next_core = 0
        self._last_monitor = 0
        #: cluster key -> core its members are packed onto.
        self._cluster_homes: Dict[str, int] = {}
        #: owner -> bytes of budget currently charged to that owner.
        self._owner_bytes: Dict[str, int] = {}
        self.fairness_declines = 0
        self.assignments = 0
        self.declined_assignments = 0
        #: Event bus (None until bound with observability attached).
        self._bus = None

    # ------------------------------------------------------------------
    # runtime wiring
    # ------------------------------------------------------------------

    def _on_bind(self) -> None:
        spec = self.machine.spec
        self.budgets = make_budgets(spec.per_core_budget_bytes,
                                    spec.n_cores, self.config.headroom)
        self.monitor = Monitor(self.machine, self.config.heat_decay)
        self._last_monitor = 0
        obs = self.obs
        if obs is not None:
            self._bus = obs.bus
            registry = obs.metrics
            if registry is not None:
                self.rebalancer.attach_metrics(registry)
                registry.gauge_fn("coretime.objects_assigned",
                                  lambda: len(self.table))
                registry.gauge_fn(
                    "coretime.objects_tracked",
                    lambda: len(self.monitor.tracked) if self.monitor else 0)
                registry.gauge_fn("coretime.table_lookups",
                                  lambda: self.table.lookups)

    def place_thread(self, thread: "SimThread") -> int:
        # One cooperative scheduling context per core, round-robin — the
        # paper pins one pthread per core and multiplexes above it.
        core_id = self._next_core % self.machine.n_cores
        self._next_core += 1
        return core_id

    # ------------------------------------------------------------------
    # ct_start / ct_end
    # ------------------------------------------------------------------

    def on_ct_start(self, thread: "SimThread", obj: CtObject, core: "Core",
                    now: int) -> Optional[int]:
        if not isinstance(obj, CtObject):
            raise SchedulerError(
                f"ct_start argument must be a CtObject, got {type(obj)!r}")
        # The table lookup itself costs time (§4: "performs a table
        # lookup").
        core.time += self.config.lookup_cost
        core.counters.busy_cycles += self.config.lookup_cost
        if self.affinity is not None:
            self.affinity.observe(thread.tid, obj)
        cores = self.table.lookup(obj)
        if not cores:
            return None
        if len(cores) == 1:
            target = cores[0]
        else:
            target = ReplicationPolicy.choose_replica(
                obj, core.chip_id, self.machine.spec)
        bus = self._bus
        if bus is not None and bus.wants(SchedDecision):
            bus.publish(SchedDecision(now, core.core_id, thread.name,
                                      obj.name, target))
        return None if target == core.core_id else target

    def on_ct_end(self, thread: "SimThread", core: "Core",
                  now: int) -> Optional[int]:
        obj = thread.ct_object
        monitor = self.monitor
        if obj is not None and monitor is not None:
            if thread.ran_on(core.core_id):
                expensive, loads = operation_misses(
                    core.counters, thread.ct_entry_snapshot)
                monitor.record_operation(obj, expensive, loads,
                                         now - thread.ct_started_at)
            else:
                monitor.record_use(obj)
        self._maybe_monitor(now)
        if self.config.return_home and thread.home_core is not None \
                and thread.home_core != core.core_id:
            return thread.home_core
        return None

    # ------------------------------------------------------------------
    # assignment machinery
    # ------------------------------------------------------------------

    def assign_expensive_objects(self, now: int = 0) -> None:
        """Pack every unassigned object whose *windowed* miss rate
        qualifies: the paper's greedy cache packing (§4).

        Runs at each monitoring tick, before the window is reset.  Sorting
        candidates by popularity first means that when budget runs out,
        the hottest objects are the ones on-chip.  One sort plus at most
        one probe per budget for each object: Θ(n log n), which
        benchmark E4 times on this method.
        """
        config = self.config
        monitor = self.monitor
        candidates = [
            obj for obj in monitor.tracked.values()
            if not obj.assigned
            and monitor.is_expensive(obj, config.miss_threshold,
                                     config.min_samples)
        ]
        if not candidates:
            return
        candidates.sort(key=assignment_key)
        mean_heat = monitor.mean_heat()
        spec = self.machine.spec
        for obj in candidates:
            size = obj.footprint_bytes(spec.line_size)
            if not self._owner_allows(obj, size):
                self.fairness_declines += 1
                continue
            # The hash key is the object's name, not its process-wide id,
            # so hash placement does not depend on what the process ran
            # before.
            core_id = place(self.budgets, size, config.packing,
                            zlib.crc32(obj.name.encode()),
                            self._cluster_homes.get(obj.cluster_key))
            if core_id is None:
                # Nothing has room: LFU replacement may evict colder
                # objects to make some.
                core_id = self.replacement.try_make_room(
                    obj, self.table, self.budgets, spec.line_size)
            if core_id is None:
                self.declined_assignments += 1
                continue
            self.budgets[core_id].charge(size)
            if obj.owner is not None:
                self._owner_bytes[obj.owner] = \
                    self._owner_bytes.get(obj.owner, 0) + size
            self.table.assign(obj, core_id)
            self.assignments += 1
            bus = self._bus
            if bus is not None and bus.wants(ObjectAssigned):
                bus.publish(ObjectAssigned(now, core_id, obj.name))
            if obj.cluster_key is not None:
                self._cluster_homes.setdefault(obj.cluster_key, core_id)
            if self.replication.wants_replicas(obj, mean_heat):
                self.replication.replicate(obj, self.table, self.budgets,
                                           spec)

    def _owner_allows(self, obj: CtObject, size: int) -> bool:
        """§6.2 fairness: cap each owner's share of the packable budget."""
        frac = self.config.per_owner_budget_frac
        if obj.owner is None or frac >= 1.0:
            return True
        total = sum(budget.capacity_bytes for budget in self.budgets)
        used = self._owner_bytes.get(obj.owner, 0)
        return used + size <= total * frac

    def _consolidate_clusters(self) -> None:
        """Move learned-cluster members onto one core.

        Affinity is discovered *after* objects are first assigned, so a
        freshly learned cluster usually spans several cores; each window
        the members are gathered onto the core hosting the hottest
        member, budget permitting.
        """
        spec = self.machine.spec
        groups: Dict[str, list] = {}
        for obj in self.table.objects():
            if obj.cluster_key is not None and len(obj.assigned_cores) == 1:
                groups.setdefault(obj.cluster_key, []).append(obj)
        for key, members in groups.items():
            if len(members) < 2:
                continue
            members.sort(key=lambda o: (-o.heat, o.oid))
            target = members[0].home
            self._cluster_homes[key] = target
            for obj in members[1:]:
                if obj.home == target:
                    continue
                size = obj.footprint_bytes(spec.line_size)
                if not self.budgets[target].fits(size):
                    break
                origin = obj.home
                self.table.move(obj, origin, target)
                self.budgets[origin].refund(size)
                self.budgets[target].charge(size)

    # ------------------------------------------------------------------
    # monitoring window
    # ------------------------------------------------------------------

    def _maybe_monitor(self, now: int) -> None:
        if now - self._last_monitor < self.config.monitor_interval:
            return
        self._last_monitor = now
        self.assign_expensive_objects(now)
        loads = self.monitor.tick(now)
        if self.config.rebalance:
            moved = self.rebalancer.rebalance(
                loads, self.table, self.budgets,
                self.machine.spec.line_size)
            bus = self._bus
            if moved and bus is not None:
                if bus.wants(RebalanceRound):
                    bus.publish(RebalanceRound(now, len(moved)))
                if bus.wants(ObjectMoved):
                    for event in moved:
                        bus.publish(ObjectMoved(now, event.from_core,
                                                event.obj_name,
                                                event.to_core, event.heat))
        if self.replication.enabled:
            self._consider_replication()
        if self.affinity is not None:
            self._consolidate_clusters()

    def _consider_replication(self) -> None:
        """Re-evaluate replication each window: popularity is only known
        after objects have run for a while, so the decision cannot be
        made once at assignment time."""
        mean_heat = self.monitor.mean_heat()
        if mean_heat <= 0:
            return
        spec = self.machine.spec
        for obj in self.monitor.tracked.values():
            if obj.assigned and self.replication.wants_replicas(obj,
                                                                mean_heat):
                self.replication.replicate(obj, self.table, self.budgets,
                                           spec)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "objects_tracked": len(self.monitor.tracked)
            if self.monitor else 0,
            "objects_assigned": len(self.table),
            "assignments": self.assignments,
            "declined_assignments": self.declined_assignments,
            "table_lookups": self.table.lookups,
            "rebalance_moves": self.rebalancer.moves,
            "replicas_created": self.replication.replicas_created,
            "lfu_evictions": self.replacement.evictions,
            "fairness_declines": self.fairness_declines,
            "monitor_windows": (self.monitor.windows_closed
                                if self.monitor else 0),
        }
