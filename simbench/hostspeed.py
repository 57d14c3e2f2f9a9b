"""Host seconds scaled to a nominal host speed, from a reference loop.

On a shared host the same code can run up to about 2x slower for
anything from a fraction of a second to a minute at a time, with no
steal time showing.  A fixed reference loop slows by about the same
factor as the simulator, so timing it between short stretches of a run
gives, for each stretch, a factor that scales its host seconds to the
nominal speed at which the loop takes :data:`REFERENCE_S`.

The loop does the simulator's kind of work without calling it, in two
parts of equal length: slotted object attribute updates, dict lookups,
heap pushes and pops; and a three-level LRU cache of ``OrderedDict``s
with a victim cascade and holder sets, like the memory model's.  A
generator is resumed per item in both.  Alone, each part followed the
simulator through slow spells to within 6-9%, the two erring in
opposite directions; their sum followed it to within about 4%.  The
loop lives here, beside the benchmark, so a change to the simulator
cannot change it.
"""

from __future__ import annotations

import heapq
import time
from collections import OrderedDict

#: Seconds one :func:`reference_seconds` call takes between stretches
#: of a run on a quiet host, once its caches are full (about 7 ms with
#: Python 3.11 on a 2-vCPU Intel Xeon VM, half in each part; a slow
#: spell stretches it to 14 ms).  Scaled seconds equal raw seconds
#: whenever the host runs at this speed.
REFERENCE_S = 0.0070

#: Calls that fill the LRU part's caches, after which a call does the
#: same mix of hits and misses every time.
WARM_UP_CALLS = 30

_SIZE = 1 << 15
_ITEMS = 4_000


class _Node:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


_NODES = [_Node(i) for i in range(_SIZE)]
_TABLE = {node.key * 7919: node for node in _NODES}


def _items(n: int):
    yield from range(n)


_LEVELS = (OrderedDict(), OrderedDict(), OrderedDict())
_CAPACITY = (512, 4096, 32768)
_HOLDERS = {}


def reference_seconds() -> float:
    """Host seconds of one pass of the reference loop."""
    start = time.perf_counter()
    _objects()
    _caches()
    return time.perf_counter() - start


def _objects() -> None:
    x, heap, total = 12345, [], 0
    nodes, table, mask = _NODES, _TABLE, _SIZE - 1
    for i in _items(_ITEMS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        nodes[x & mask].hits += 1
        other = table.get((x >> 4 & mask) * 7919)
        if other is not None and other.hits & 1:
            heapq.heappush(heap, (x & 1023, i))
            if len(heap) > 64:
                total += heapq.heappop(heap)[0]


def _caches() -> None:
    l1, l2, l3 = _LEVELS
    cap1, cap2, cap3 = _CAPACITY
    move1, move2, move3 = l1.move_to_end, l2.move_to_end, l3.move_to_end
    x, holders = 777, _HOLDERS
    for i in _items(_ITEMS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        # Three lines in four spread over 64k lines, one in four over 512.
        line = (x >> 8) & (0xFFFF if x & 3 else 0x1FF)
        if line in l1:
            move1(line)
            continue
        if line in l2:
            move2(line)
        elif line in l3:
            move3(line)
        else:
            held = holders.get(line)
            if held is None:
                held = holders[line] = set()
            held.add(i & 7)
            l3[line] = i
            if len(l3) > cap3:
                l3.popitem(last=False)
            l2[line] = i
            if len(l2) > cap2:
                l2.popitem(last=False)
        l1[line] = i
        if len(l1) > cap1:
            l1.popitem(last=False)


class ScaledClock:
    """Host seconds scaled to the nominal speed, lap by lap.

    Creating the clock times the reference loop and starts the first
    lap.  :meth:`lap` ends the current lap, times the loop again and
    starts the next lap after it, so the loop's own time is in no lap.
    A lap's seconds are scaled by :data:`REFERENCE_S` over the mean of
    the loop times just before and just after it; ``total`` sums the
    laps so far."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.total = 0.0
        self._reference = reference_seconds()
        self._start = clock()

    def lap(self) -> float:
        """Scaled seconds since the previous lap ended."""
        end = self._clock()
        before, self._reference = self._reference, reference_seconds()
        seconds = ((end - self._start) * 2 * REFERENCE_S
                   / (before + self._reference))
        self.total += seconds
        self._start = self._clock()
        return seconds
