"""CoreTime objects and the object→core lookup table.

A :class:`CtObject` is what the programmer names in ``ct_start(o)``: an
address range identifying the data an operation manipulates (a directory,
a hash-table shard, a tree node).  The :class:`ObjectTable` is the table
``ct_start`` consults (§4, Interface): it maps objects to the core whose
cache they are packed into.  Objects not in the table execute locally and
are left to the shared-memory hardware.

Per-object statistics (operation counts, expensive-miss counts, decayed
heat) live on the object; they are the measurements the monitor uses to
decide what is "expensive to fetch" and the rebalancer uses to equalise
load.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional

from repro.errors import SchedulerError

_object_ids = itertools.count()


class CtObject:
    """A schedulable data object (the paper's unit of cache packing)."""

    __slots__ = (
        "oid", "name", "addr", "size",
        "read_only", "cluster_key", "owner",
        "ops", "expensive_misses", "op_cycles",
        "window_ops", "window_expensive_misses", "heat",
        "assigned_cores", "measured_footprint_lines",
    )

    def __init__(self, name: str, addr: int, size: int,
                 read_only: bool = False,
                 cluster_key: Optional[str] = None,
                 owner: Optional[str] = None) -> None:
        self.oid = next(_object_ids)
        self.name = name
        self.addr = addr
        #: Size hint in bytes.  The paper lists finding object sizes as a
        #: challenge (§3); applications that know the size provide it, and
        #: the monitor refines it from measured footprints.
        self.size = size
        self.read_only = read_only
        #: Objects sharing a cluster key prefer co-location (§6.2).
        self.cluster_key = cluster_key
        #: Process/tenant owning the object.  §6.2: "the O2 scheduler
        #: must track which process owns an object and its operations.
        #: With this information the O2 scheduler could implement
        #: priorities and fairness."  The CoreTime runtime enforces a
        #: per-owner cache-budget share when configured.
        self.owner = owner
        # -- measurements -------------------------------------------------
        self.ops = 0
        self.expensive_misses = 0
        self.op_cycles = 0
        #: Operations observed in the current monitoring window.
        self.window_ops = 0
        #: Expensive misses observed in the current monitoring window.
        #: Windowed rates (not lifetime averages) drive assignment, so a
        #: one-time cold-start miss burst does not condemn an object that
        #: caches perfectly well to permanent migration.
        self.window_expensive_misses = 0
        #: Exponentially decayed popularity, updated per window.
        self.heat = 0.0
        # -- placement -----------------------------------------------------
        #: Cores this object is assigned to (usually 0 or 1; >1 when the
        #: replication policy replicates a hot read-only object).
        self.assigned_cores: List[int] = []
        self.measured_footprint_lines = 0

    @property
    def assigned(self) -> bool:
        return bool(self.assigned_cores)

    @property
    def home(self) -> Optional[int]:
        return self.assigned_cores[0] if self.assigned_cores else None

    def window_misses_per_op(self) -> float:
        if not self.window_ops:
            return 0.0
        return self.window_expensive_misses / self.window_ops

    def footprint_bytes(self, line_size: int) -> int:
        """Best available size estimate for packing.

        An application-provided size hint wins (it is exact); the
        miss-count footprint — which over-counts by lock lines and line
        rounding — is the fallback for objects declared without a size,
        the "find sizes of objects" challenge of §3.
        """
        if self.size > 0:
            return self.size
        return self.measured_footprint_lines * line_size

    def __repr__(self) -> str:
        where = self.assigned_cores if self.assigned else "unassigned"
        return (f"CtObject({self.name}, {self.size}B, ops={self.ops}, "
                f"cores={where})")


class ObjectTable:
    """The object→core table consulted by ``ct_start``.

    Lookup is a dict access; the simulated cost of the lookup is charged
    separately by the CoreTime runtime (``lookup_cost`` in its config).
    """

    def __init__(self) -> None:
        self._assignment: Dict[int, List[int]] = {}
        self._objects: Dict[int, CtObject] = {}
        self.lookups = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._assignment)

    def __contains__(self, obj: CtObject) -> bool:
        return obj.oid in self._assignment

    def lookup(self, obj: CtObject) -> Optional[List[int]]:
        """Cores ``obj`` is assigned to, or None if unscheduled."""
        self.lookups += 1
        cores = self._assignment.get(obj.oid)
        if cores is not None:
            self.hits += 1
        return cores

    def assign(self, obj: CtObject, core_id: int) -> None:
        """Assign (or add a replica of) ``obj`` to ``core_id``."""
        cores = self._assignment.setdefault(obj.oid, [])
        if core_id in cores:
            return
        cores.append(core_id)
        obj.assigned_cores = cores
        self._objects[obj.oid] = obj

    def move(self, obj: CtObject, from_core: int, to_core: int) -> None:
        cores = self._assignment.get(obj.oid)
        if not cores or from_core not in cores:
            raise SchedulerError(
                f"moving {obj.name}: not assigned to core {from_core}")
        cores[cores.index(from_core)] = to_core
        obj.assigned_cores = cores

    def unassign(self, obj: CtObject, core_id: Optional[int] = None) -> None:
        """Remove one replica (or the whole entry when ``core_id`` is
        None or the last replica disappears)."""
        cores = self._assignment.get(obj.oid)
        if cores is None:
            return
        if core_id is not None and core_id in cores:
            cores.remove(core_id)
        elif core_id is None:
            cores.clear()
        if not cores:
            self._assignment.pop(obj.oid, None)
            self._objects.pop(obj.oid, None)
            obj.assigned_cores = []

    def objects_on(self, core_id: int) -> List[CtObject]:
        return [obj for obj in self._objects.values()
                if core_id in obj.assigned_cores]

    def objects(self) -> Iterable[CtObject]:
        return self._objects.values()

    def entries(self) -> Iterable[tuple]:
        """(CtObject, assigned-core list) pairs for every table entry.

        The invariant checker walks these to confirm the table and the
        per-object ``assigned_cores`` views never diverge.
        """
        return ((self._objects[oid], cores)
                for oid, cores in self._assignment.items())
