"""Instruction-stream items yielded by simulated thread programs.

A simulated thread is a Python generator; each ``yield`` hands the core one
item describing what the thread does next — compute for some cycles, touch
memory, take a lock, or bracket a CoreTime operation.  The engine charges
simulated time for the item and then resumes the generator.

This mirrors how the paper's programs look (Figures 1 and 3): the
annotated directory-search loop translates directly into

.. code-block:: python

    while True:
        yield Compute(think_cycles)
        d, name = pick()
        yield CtStart(d.object)
        yield Acquire(d.lock)
        yield Scan(d.addr, bytes_until_match, per_line_compute=4)
        yield Release(d.lock)
        yield CtEnd()

Items are plain slotted classes rather than an enum-plus-tuple so the
engine can dispatch on ``type(item)`` and the hot path stays allocation
light.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.object_table import CtObject
    from repro.threads.sync import SpinLock


class Compute:
    """Execute ``cycles`` of pure computation (no memory traffic)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Compute({self.cycles})"


class Store:
    """Write at ``addr`` (one line; invalidates remote copies)."""

    __slots__ = ("addr",)

    def __init__(self, addr: int) -> None:
        self.addr = addr

    def __repr__(self) -> str:
        return f"Store({self.addr:#x})"


class Scan:
    """Sequentially read ``nbytes`` from ``addr``.

    ``per_line_compute`` charges fixed cycles per line for the work done on
    the data (e.g. comparing directory entries against a file name).
    """

    __slots__ = ("addr", "nbytes", "per_line_compute")

    def __init__(self, addr: int, nbytes: int,
                 per_line_compute: int = 0) -> None:
        self.addr = addr
        self.nbytes = nbytes
        self.per_line_compute = per_line_compute

    def __repr__(self) -> str:
        return f"Scan({self.addr:#x}, {self.nbytes}B)"


class Acquire:
    """Take a spin lock; the thread retries (spinning) until it succeeds."""

    __slots__ = ("lock",)

    def __init__(self, lock: "SpinLock") -> None:
        self.lock = lock

    def __repr__(self) -> str:
        return f"Acquire({self.lock.name})"


class Release:
    """Release a spin lock the thread owns."""

    __slots__ = ("lock",)

    def __init__(self, lock: "SpinLock") -> None:
        self.lock = lock

    def __repr__(self) -> str:
        return f"Release({self.lock.name})"


class CtStart:
    """Begin an operation on ``obj`` — the paper's ``ct_start(o)``.

    Under CoreTime the object table is consulted and the thread may
    migrate; under a plain thread scheduler the annotation is inert, so
    the thread baseline runs the same Figure 3 program.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: "CtObject") -> None:
        self.obj = obj

    def __repr__(self) -> str:
        return f"CtStart({getattr(self.obj, 'name', self.obj)!r})"


class CtEnd:
    """End the current operation — the paper's ``ct_end()``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "CtEnd()"


#: Everything a program may yield: exactly the items the workloads yield
#: (``tests/test_workloads.py`` checks this), and the keys of the
#: engine's dispatch table.
ITEM_TYPES = (Compute, Store, Scan, Acquire, Release, CtStart, CtEnd)
