"""Object clustering (§6.2).

*"It is likely that some workloads would benefit from object clustering:
if one thread or operation uses two objects simultaneously then it might
be best to place both objects in the same cache, if they fit."*

Two mechanisms are provided:

* **Declared clusters** — workloads set ``CtObject.cluster_key``; the
  packing algorithms co-locate members (see :mod:`repro.core.packing`).
* **Learned clusters** — :class:`AffinityTracker` watches the sequence of
  objects each thread operates on and, when two objects are used
  back-to-back often enough, merges them into one cluster (union-find)
  so the *next* packing or move co-locates them.  This is the "compilers
  might also infer object clusters" hook of §6.2, done at runtime.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.object_table import CtObject


class AffinityTracker:
    """Learns co-access affinity between objects from operation order."""

    def __init__(self, threshold: int = 32) -> None:
        #: Transitions (a then b, unordered) needed before clustering.
        self.threshold = threshold
        self._last_obj: Dict[int, CtObject] = {}     # thread tid -> object
        self._transitions: Dict[Tuple[int, int], int] = {}
        self._cluster_parent: Dict[int, int] = {}    # union-find over oids
        self.clusters_formed = 0

    # -- union-find ---------------------------------------------------------

    def _find(self, oid: int) -> int:
        parent = self._cluster_parent
        root = oid
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(oid, oid) != root:
            parent[oid], oid = root, parent[oid]
        return root

    def _union(self, a: CtObject, b: CtObject) -> None:
        root_a, root_b = self._find(a.oid), self._find(b.oid)
        if root_a == root_b:
            return
        self._cluster_parent[max(root_a, root_b)] = min(root_a, root_b)
        self.clusters_formed += 1

    # -- observation ---------------------------------------------------------

    def observe(self, thread_tid: int, obj: CtObject) -> None:
        """Record that ``thread_tid`` operated on ``obj``.

        When the same thread's previous operation touched a different
        object, the (previous, current) pair accumulates affinity; past
        the threshold both objects get a shared ``cluster_key``.
        """
        previous = self._last_obj.get(thread_tid)
        self._last_obj[thread_tid] = obj
        if previous is None or previous is obj:
            return
        key = (min(previous.oid, obj.oid), max(previous.oid, obj.oid))
        count = self._transitions.get(key, 0) + 1
        self._transitions[key] = count
        if count >= self.threshold:
            self._union(previous, obj)
            root = self._find(obj.oid)
            cluster_key = f"auto-{root}"
            previous.cluster_key = cluster_key
            obj.cluster_key = cluster_key
