"""Address alignment.

The simulated address space is a flat range of byte addresses; caches and
the coherence directory operate on line numbers (``addr // line_size``),
which the memory system's hot paths compute inline.
"""

from __future__ import annotations


def align_up(addr: int, alignment: int) -> int:
    """Smallest multiple of ``alignment`` that is >= ``addr``."""
    return (addr + alignment - 1) & ~(alignment - 1)
