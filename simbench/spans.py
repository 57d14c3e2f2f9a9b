"""In-memory span recording for the traced benchmark run.

A span is one call into a layer: its name, host start and end times
(``perf_counter_ns``) and the span that was open when it began (its
parent).  Spans live in four parallel ``array`` columns, about 24 bytes
each, so a traced run of a few hundred thousand layer calls stays small;
:meth:`SpanRecorder.write` dumps them once the run is over.

The recorder knows nothing about the simulator: ``run.py`` wraps each
layer's public entry points with :meth:`SpanRecorder.wrap` from outside.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

#: Column layout of :meth:`SpanRecorder.write` (after the JSON header line).
COLUMNS = (("name", "i"), ("parent", "i"), ("start", "q"), ("end", "q"))


@dataclass
class LayerTime:
    """Aggregate over every span of one name."""

    calls: int = 0
    #: Summed span durations, in nanoseconds.
    total_ns: int = 0
    #: Summed durations minus the time each span's children cover.
    self_ns: int = 0


class SpanRecorder:
    """Records nested spans; computes per-name call counts and self time."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        # Indices of the spans currently open, innermost last; -1 is the
        # parent of top-level spans.
        self._open = [-1]
        #: Work counts the wrappers tally beside the spans.
        self.counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        name_id = self._name_id(name)
        clock = self.clock
        open_spans = self._open
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        end = self.end

        def traced(*args, **kwargs):
            index = len(end)
            add_name(name_id)
            add_parent(open_spans[-1])
            add_end(0)
            open_spans.append(index)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                open_spans.pop()

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span called ``name``."""
        index = len(self.end)
        self.name.append(self._name_id(name))
        self.parent.append(self._open[-1])
        self.end.append(0)
        self._open.append(index)
        self.start.append(self.clock())
        try:
            yield
        finally:
            self.end[index] = self.clock()
            self._open.pop()

    def summary(self) -> Dict[str, LayerTime]:
        """Calls, total and self time per span name.

        Spans on one thread nest strictly, so the direct children of a
        span never overlap and the time they cover is their summed
        duration.
        """
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child_ns = [0] * n
        for index in range(n):
            up = parent[index]
            if up >= 0:
                child_ns[up] += end[index] - start[index]
        layers = {name: LayerTime() for name in self.names}
        for index in range(n):
            layer = layers[self.names[self.name[index]]]
            duration = end[index] - start[index]
            layer.calls += 1
            layer.total_ns += duration
            layer.self_ns += duration - child_ns[index]
        return layers

    def write(self, path: str) -> str:
        """Dump the spans: one JSON header line, then the raw columns."""
        header = {"names": self.names, "count": len(self.start),
                  "clock": "perf_counter_ns",
                  "columns": [[column, code] for column, code in COLUMNS]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column, _ in COLUMNS:
                getattr(self, column).tofile(handle)
        return path
