"""Exporters: Chrome trace-event JSON, JSONL dumps, ASCII timelines.

The Chrome trace loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``:

* one *process* per simulator run (streams are split on
  :class:`~repro.obs.events.RunMarker`), named after the scheduler;
* one *track* (thread row) per simulated core;
* completed operations as ``X`` (complete) slices with their duration;
* migrations as flow arrows (``s``/``f`` pairs) from the departing core's
  track to the arriving one, plus instant markers;
* scheduler-level events (assignments, rebalance rounds) on a dedicated
  ``scheduler`` track.

Timestamps are simulated *cycles* reported as microseconds (1 cycle =
1 us in the UI); relative durations — the thing a trace viewer is for —
are exact.
"""

from __future__ import annotations

import gzip
import io
import json
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import (Any, Dict, Iterable, List, Optional, Sequence, TextIO,
                    Tuple, Type)

from repro.obs.events import (EVENT_KINDS, CacheEvicted, CacheInvalidated,
                              Event, LockContended, MigrationStarted,
                              ObjectAssigned, ObjectMoved,
                              OperationFinished, RebalanceRound, RunMarker,
                              ThreadArrived, ThreadFinished, ThreadSpawned)

#: ``tid`` of the per-process scheduler track (cores use their own ids).
SCHEDULER_TRACK = 10_000

#: Version of the JSONL event-stream schema.  Bump when an event gains,
#: loses or renames a field, or when a new event kind is added (older
#: analyzers refuse unknown kinds); the offline analyzer
#: (:mod:`repro.obs.profile`) refuses streams newer than it understands.
#: Version 1 streams (PR 1) had no meta line and no attribution fields;
#: version 2 added the attribution fields; version 3 added the
#: verification-layer kinds (``fault``, ``invariant``); version 4 added
#: the sweep-orchestration kinds (``sweep_start``, ``sweep_end``,
#: ``sweep_fail``); version 5 added the distributed-sweep kinds
#: (``worker_join``, ``worker_lost``, ``lease_expired``).
SCHEMA_VERSION = 5


class _DeterministicGzipText(io.TextIOWrapper):
    """Text writer over a gzip member with a pinned (zero) mtime.

    ``gzip.open(..., "wt")`` stamps the current time into the member
    header, which would break the byte-reproducibility contract of
    :func:`jsonl_meta_line`; this wrapper pins ``mtime=0`` and closes
    the underlying file (``GzipFile`` deliberately leaves it open).
    """

    def __init__(self, path: str) -> None:
        self._raw_file = open(path, "wb")
        # Level 6, zlib's default: GzipFile's default of 9 took 5x as
        # long on a simulator recording for 11% fewer bytes.
        gz = gzip.GzipFile(filename="", fileobj=self._raw_file,
                           mode="wb", compresslevel=6, mtime=0)
        super().__init__(gz, encoding="utf-8", newline="")

    def close(self) -> None:
        try:
            super().close()          # flush text + gzip trailer
        finally:
            if not self._raw_file.closed:
                self._raw_file.close()


def open_text(path: str, mode: str = "r") -> TextIO:
    """Open ``path`` as text; ``.gz`` suffixes gzip transparently.

    Reading accepts multi-member archives (``cat a.gz b.gz`` of two
    shards is a valid recording); writing produces deterministic bytes
    (member mtime pinned to 0) so gzip recordings stay reproducible.
    Only ``"r"`` and ``"w"`` modes are supported for gzip targets.
    """
    if not str(path).endswith(".gz"):
        return open(path, mode, encoding="utf-8")
    if "r" in mode:
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return _DeterministicGzipText(path)


def chrome_trace(events: Sequence[Event],
                 default_label: str = "run") -> Dict[str, Any]:
    """Build a Chrome trace-event document from an event stream."""
    trace_events: List[Dict[str, Any]] = []
    processes: List[str] = []
    tracks_seen = set()
    flow_id = 0

    def ensure_process(label: str) -> int:
        pid = len(processes)
        processes.append(label)
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"{pid}:{label}"}})
        return pid

    def ensure_track(pid: int, tid: int) -> None:
        if (pid, tid) in tracks_seen:
            return
        tracks_seen.add((pid, tid))
        name = "scheduler" if tid == SCHEDULER_TRACK else f"core {tid}"
        trace_events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": name}})

    pid: Optional[int] = None
    for event in events:
        etype = type(event)
        if etype is RunMarker:
            pid = ensure_process(event.label)
            continue
        if pid is None:
            pid = ensure_process(default_label)
        if etype is OperationFinished:
            ensure_track(pid, event.core)
            trace_events.append({
                "ph": "X", "name": event.obj, "cat": "op",
                "ts": event.ts - event.cycles, "dur": event.cycles,
                "pid": pid, "tid": event.core,
                "args": {"thread": event.thread}})
        elif etype is MigrationStarted:
            ensure_track(pid, event.core)
            ensure_track(pid, event.target)
            flow_id += 1
            common = {"cat": "migration", "name": "migrate",
                      "id": flow_id, "pid": pid}
            trace_events.append(dict(common, ph="s", ts=event.ts,
                                     tid=event.core,
                                     args={"thread": event.thread,
                                           "to": event.target}))
            trace_events.append(dict(common, ph="f", bp="e",
                                     ts=event.arrive_ts, tid=event.target,
                                     args={"thread": event.thread,
                                           "from": event.core}))
            trace_events.append({
                "ph": "i", "name": f"out:{event.thread}",
                "cat": "migration", "s": "t", "ts": event.ts, "pid": pid,
                "tid": event.core, "args": {"to": event.target}})
        elif etype in (ThreadSpawned, ThreadFinished, ThreadArrived,
                       LockContended):
            ensure_track(pid, event.core)
            trace_events.append({
                "ph": "i", "name": f"{event.kind}:{event.thread}",
                "cat": "thread", "s": "t", "ts": event.ts, "pid": pid,
                "tid": event.core, "args": {}})
        elif etype in (ObjectAssigned, ObjectMoved, RebalanceRound):
            ensure_track(pid, SCHEDULER_TRACK)
            args = {key: value for key, value in event.as_dict().items()
                    if key not in ("ts",)}
            trace_events.append({
                "ph": "i", "name": event.kind, "cat": "scheduler",
                "s": "p", "ts": event.ts, "pid": pid,
                "tid": SCHEDULER_TRACK, "args": args})
        elif etype in (CacheEvicted, CacheInvalidated):
            ensure_track(pid, event.core)
            trace_events.append({
                "ph": "i", "name": event.kind, "cat": "memory", "s": "t",
                "ts": event.ts, "pid": pid, "tid": event.core,
                "args": {key: value
                         for key, value in event.as_dict().items()
                         if key not in ("ts", "core", "kind")}})
        # Unknown event types are simply not exported.
    # Stable per-track time order (metadata rows lead each track).
    trace_events.sort(key=lambda entry: (
        entry["pid"], 0 if entry["ph"] == "M" else 1,
        entry["tid"] if entry["ph"] != "M" else -1,
        entry.get("ts", 0)))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs",
                      "runs": processes,
                      "time_unit": "1 simulated cycle = 1us"},
    }


def write_chrome_trace(path: str, events: Sequence[Event],
                       default_label: str = "run") -> str:
    """Serialise :func:`chrome_trace` to ``path``; returns the path."""
    document = chrome_trace(events, default_label)
    with open_text(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

#: The one JSONL line encoder: compact separators and sorted keys, so
#: equal events encode to equal bytes.  It writes the meta line and any
#: event no line template takes, and it is the reference the templates
#: reproduce byte for byte.
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)

#: Lines joined into one write: large enough that per-write costs
#: vanish, small enough that memory stays flat on any stream length.
_CHUNK_LINES = 256


def _line_template(cls: Type[Event]) -> Tuple[str, Any]:
    """``cls``'s line as a ``%`` template, and the getter of its fields.

    The keys come in the order ``sort_keys`` puts them, ``"kind"`` with
    its value written in; every other key has one ``%s`` slot, filled
    from the getter's tuple in the same order.
    """
    def literal(text: str) -> str:
        return encode_basestring_ascii(text).replace("%", "%%")

    keys = sorted(("kind",) + cls.fields)
    slots = [literal(key) + ":"
             + (literal(cls.kind) if key == "kind" else "%s")
             for key in keys]
    getter = attrgetter(*[key for key in keys if key != "kind"])
    return "{" + ",".join(slots) + "}", getter


#: One line template per event class, built once from ``EVENT_KINDS``.
#: A class with no field beside ``ts`` would get a scalar, not a tuple,
#: from its getter; it takes the encoder.
_TEMPLATES = {cls: _line_template(cls) for cls in EVENT_KINDS.values()
              if len(cls.fields) > 1}


def jsonl_meta_line() -> str:
    """The header record every JSONL dump starts with.

    Deterministic on purpose (no timestamps, no hostnames): two runs with
    the same seed must produce byte-identical streams.
    """
    return _LINE_ENCODER.encode({"kind": "meta",
                                 "schema_version": SCHEMA_VERSION,
                                 "source": "repro.obs"})


def write_events(handle: TextIO, events: Iterable[Event]) -> None:
    """Append one line per event to ``handle``: the one JSONL encoder.

    Each line is the event's :meth:`~Event.as_dict` form, newline
    terminated; lines reach ``handle`` ``_CHUNK_LINES`` at a time,
    so ``events`` may be a generator of any length.  It writes what it
    is given: when the event log hit its cap, ``python -m repro.bench``
    reports the dropped events next to each output built from the log.

    An event of a class in ``_TEMPLATES`` whose values are all exact
    ``int``, ``str`` or None fills its class's template with what
    ``_LINE_ENCODER`` would write for them; any other event (one holding
    a bool, a float, a subclass instance or a container, or one of a
    class outside ``EVENT_KINDS``) is encoded by ``_LINE_ENCODER``
    itself.
    """
    templates, encode = _TEMPLATES, _LINE_ENCODER.encode
    pending = iter(events)
    while True:
        lines: List[str] = []
        for event in islice(pending, _CHUNK_LINES):
            entry = templates.get(event.__class__)
            if entry is not None:
                template, getter = entry
                texts: List[Any] = []
                for value in getter(event):
                    cls = value.__class__
                    if cls is int:      # %s writes it as int.__repr__
                        texts.append(value)
                    elif cls is str:
                        texts.append(encode_basestring_ascii(value))
                    elif value is None:
                        texts.append("null")
                    else:
                        break
                else:               # every value has its template text
                    lines.append(template % tuple(texts))
                    continue
            lines.append(encode(event.as_dict()))
        if not lines:
            return
        lines.append("")
        handle.write("\n".join(lines))


def events_to_jsonl(events: Iterable[Event]) -> str:
    """One compact JSON object per line, in stream order.

    The first line is a ``meta`` record carrying :data:`SCHEMA_VERSION`;
    every following line is one event's :meth:`~Event.as_dict` form.
    """
    buffer = io.StringIO()
    buffer.write(jsonl_meta_line() + "\n")
    write_events(buffer, events)
    return buffer.getvalue()[:-1]


def write_jsonl(path: str, events: Iterable[Event]) -> str:
    """Write a JSONL recording; ``.jsonl.gz`` paths are gzipped.

    Streams ``events`` in chunks (it may be a generator of any length)
    and produces bytes identical to ``events_to_jsonl`` plus a trailing
    newline.
    """
    with open_text(path, "w") as handle:
        handle.write(jsonl_meta_line() + "\n")
        write_events(handle, events)
    return path


# ---------------------------------------------------------------------------
# ASCII timeline
# ---------------------------------------------------------------------------

#: Density ramp for operations completed per time bucket.
_RAMP = " .:-=+*#@"


def timeline_extent(events: Iterable[Event]) -> Optional[Tuple[int, int]]:
    """The last cycle an operation finished or a thread departed at, and
    the highest core either happened on (None when neither did): a
    timeline's first pass, since its bucket width follows from them."""
    horizon = last_core = -1
    for event in events:
        etype = type(event)
        if etype is OperationFinished or etype is MigrationStarted:
            if event.ts > horizon:
                horizon = event.ts
            if event.core > last_core:
                last_core = event.core
    return (horizon, last_core) if last_core >= 0 else None


def render_timeline(events: Iterable[Event],
                    extent: Optional[Tuple[int, int]],
                    n_cores: Optional[int] = None, width: int = 72) -> str:
    """Per-core activity strip chart of ``events``, whose
    :func:`timeline_extent` is ``extent``, in one pass.

    Each column is a time bucket; the glyph encodes how many operations
    finished on that core in the bucket, and ``M`` flags a bucket where
    the core handed a thread away (migration out dominates the glyph so
    scheduler activity stands out).
    """
    if extent is None:
        return "(no operations recorded)"
    horizon, last_core = extent
    if n_cores is None:
        n_cores = last_core + 1
    width = max(8, width)
    bucket = max(1, -(-horizon // width))          # ceil division
    op_counts = [[0] * width for _ in range(n_cores)]
    migrated = [[False] * width for _ in range(n_cores)]
    for event in events:
        etype = type(event)
        if etype is OperationFinished:
            if event.core < n_cores:
                op_counts[event.core][min(width - 1,
                                          event.ts // bucket)] += 1
        elif etype is MigrationStarted and event.core < n_cores:
            migrated[event.core][min(width - 1, event.ts // bucket)] = True
    peak = max((max(row) for row in op_counts), default=0)
    lines = [f"ops/bucket timeline  (bucket = {bucket:,} cycles, "
             f"peak = {peak} ops)"]
    for core_id in range(n_cores):
        row = []
        for index in range(width):
            if migrated[core_id][index]:
                row.append("M")
            elif peak:
                level = op_counts[core_id][index] * (len(_RAMP) - 1)
                row.append(_RAMP[-(-level // peak) if level else 0])
            else:
                row.append(" ")
        lines.append(f"core {core_id:>3} |{''.join(row)}|")
    lines.append(f"         0{'cycles'.center(width - 1)}{horizon:,}")
    return "\n".join(lines)


def ascii_timeline(events: Sequence[Event], n_cores: Optional[int] = None,
                   width: int = 72) -> str:
    """Per-core activity strip chart for terminals (see
    :func:`render_timeline`); ``events`` is read twice, so it must be
    re-iterable."""
    return render_timeline(events, timeline_extent(events), n_cores, width)
