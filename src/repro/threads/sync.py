"""Spin locks in the simulated machine.

The paper's file system protects each directory with a spin lock; lock
words live in simulated memory, so acquiring a lock is a *store* to the
lock's cache line (invalidating remote copies — the classic coherence
ping-pong) and spinning is repeated *loads* of that line.  This makes lock
contention show up through the same memory model as everything else, which
is what produces the paper's low-throughput left edge of Figure 4 (fewer
directories than cores).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.layout import AddressSpace
    from repro.threads.thread import SimThread


class SpinLock:
    """A test-and-set spin lock occupying one cache line."""

    __slots__ = ("name", "addr", "owner", "acquires", "contended_acquires",
                 "spin_attempts")

    def __init__(self, name: str, addr: int) -> None:
        self.name = name
        self.addr = addr
        self.owner: Optional["SimThread"] = None
        self.acquires = 0
        self.contended_acquires = 0
        self.spin_attempts = 0

    @classmethod
    def allocate(cls, space: "AddressSpace", name: str) -> "SpinLock":
        """Allocate a lock on its own cache line of ``space``."""
        region = space.alloc(f"lock:{name}", space.line_size)
        return cls(name, region.base)

    def try_acquire(self, thread: "SimThread") -> bool:
        """Attempt the test-and-set; bookkeeping only, no timing."""
        if self.owner is None:
            self.owner = thread
            self.acquires += 1
            return True
        if self.owner is thread:
            raise SimulationError(
                f"thread {thread.name} re-acquiring spin lock {self.name}")
        self.spin_attempts += 1
        return False

    def release(self, thread: "SimThread") -> None:
        if self.owner is not thread:
            owner = self.owner.name if self.owner else "<unheld>"
            raise SimulationError(
                f"thread {thread.name} releasing lock {self.name} "
                f"owned by {owner}")
        self.owner = None

    def __repr__(self) -> str:
        state = self.owner.name if self.owner else "free"
        return f"SpinLock({self.name}, {state})"
