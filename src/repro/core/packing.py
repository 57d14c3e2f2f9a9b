"""Cache packing: the rule that puts one object into a core's cache.

§4 of the paper: *"CoreTime uses a greedy first fit 'cache packing'
algorithm to decide what core to assign an object to … assigning each
object that is expensive to fetch to a cache with free space.  The
algorithm executes in Θ(n log n) time."*

The CoreTime runtime packs at every monitoring tick
(:meth:`~repro.core.coretime.CoreTimeScheduler.assign_expensive_objects`):
it sorts the objects that qualify as expensive with
:func:`assignment_key`, most popular first so that the hottest objects
get on-chip space when it runs out, and hands each to :func:`place`.
That is one sort plus at most one probe per budget for each object.
:func:`place` knows three policies (:data:`POLICIES`):

* ``first_fit`` — the first budget with room (the paper's choice);
* ``balanced``  — the budget with the most free bytes (smooths load
  without the rebalancer);
* ``hash``      — the budget a fixed per-object key selects, room
  permitting (the "no-measurement" strawman).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.object_table import CtObject
from repro.errors import PackingError

#: The placement policies :func:`place` implements.
POLICIES = ("first_fit", "balanced", "hash")


@dataclass
class CacheBudget:
    """Packable capacity of one core's cache share."""

    core_id: int
    capacity_bytes: int
    used_bytes: int = 0

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def fits(self, size: int) -> bool:
        return size <= self.free_bytes

    def charge(self, size: int) -> None:
        self.used_bytes += size

    def refund(self, size: int) -> None:
        self.used_bytes = max(0, self.used_bytes - size)


def make_budgets(per_core_bytes: int, n_cores: int,
                 headroom: float = 1.0) -> List[CacheBudget]:
    """Budgets for every core, scaled by ``headroom`` (≤ 1.0)."""
    if not 0.0 < headroom <= 1.0:
        raise PackingError(f"headroom must be in (0, 1], got {headroom}")
    capacity = int(per_core_bytes * headroom)
    return [CacheBudget(core, capacity) for core in range(n_cores)]


def check_policy(name: str) -> None:
    """Raise :class:`PackingError` unless ``name`` is in :data:`POLICIES`."""
    if name not in POLICIES:
        raise PackingError(
            f"unknown packing policy {name!r}; choose from {list(POLICIES)}")


def assignment_key(obj: CtObject) -> tuple:
    """Packing order: most operations in the current window first, ties
    broken by object id for determinism."""
    return (-obj.window_ops, obj.oid)


def place(budgets: Sequence[CacheBudget], size: int, policy: str,
          key: int, home: Optional[int] = None) -> Optional[int]:
    """Core whose budget has room for ``size`` more bytes, or None.

    ``budgets[i]`` is core ``i``'s budget.  ``home``, the core an
    object's cluster is packed onto (§6.2 object clustering), wins when
    it has room, whatever the policy.  Otherwise ``policy`` chooses: the
    first budget with room, the one with the most free bytes, or
    ``budgets[key % len(budgets)]``.
    """
    if home is not None and budgets[home].fits(size):
        return home
    if policy == "first_fit":
        for budget in budgets:
            if budget.fits(size):
                return budget.core_id
    elif policy == "balanced":
        candidates = [b for b in budgets if b.fits(size)]
        if candidates:
            return max(candidates, key=lambda b: b.free_bytes).core_id
    else:
        budget = budgets[key % len(budgets)]
        if budget.fits(size):
            return budget.core_id
    return None
