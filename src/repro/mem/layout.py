"""Simulated address-space allocator.

Workloads and the FAT image need stable, non-overlapping address regions so
that distinct objects map to distinct cache lines.  :class:`AddressSpace` is
a simple bump allocator with line alignment and named regions — enough to
lay out images deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.errors import AllocationError
from repro.mem.line import align_up


@dataclass(frozen=True)
class Region:
    """A named, contiguous allocation."""

    name: str
    base: int
    size: int


class AddressSpace:
    """Bump allocator over a flat simulated address space."""

    def __init__(self, size: int = 1 << 40, base: int = 0,
                 line_size: int = 64) -> None:
        if size <= 0:
            raise AllocationError("address space size must be positive")
        self._limit = base + size
        self._next = base
        self._line_size = line_size
        self._names: Set[str] = set()

    @property
    def line_size(self) -> int:
        return self._line_size

    def alloc(self, name: str, size: int,
              alignment: Optional[int] = None) -> Region:
        """Allocate ``size`` bytes, aligned to a line by default.

        Region names must be unique, so one structure cannot be
        allocated twice on a machine.
        """
        if size <= 0:
            raise AllocationError(f"region {name!r}: size must be positive")
        if name in self._names:
            raise AllocationError(f"region {name!r} already allocated")
        alignment = alignment or self._line_size
        base = align_up(self._next, alignment)
        if base + size > self._limit:
            raise AllocationError(
                f"region {name!r}: out of address space "
                f"({base + size - self._limit} bytes over)")
        self._next = base + size
        self._names.add(name)
        return Region(name, base, size)
