"""Offline performance attribution over recorded event streams.

The paper's §4 story is that event counters *explain* performance:
misses are attributed to the object being manipulated, and per-core
counters reveal overloaded cores and overpacked caches.  The online
:class:`~repro.core.monitor.Monitor` consumes those signals live; this
module reproduces the same explanations *offline*, from the JSONL event
streams and metrics snapshots :mod:`repro.obs` already exports — so a
recorded run can be profiled, compared and regression-gated long after
the simulator is gone.

This module holds the one reader (:func:`iter_jsonl`), the attribution
records and tables the reducers of :mod:`repro.obs.stream` fill in, and
the rows and rendering of the A/B diff.  Every report, the diff
included, reads a :class:`repro.obs.stream.Profile`, one section per
run::

    profile = StreamProfiler().feed_path("fig2.events.jsonl").profile
    print(profile.render())                       # attribution & co
    base, cand = (StreamProfiler().feed_path(path).profile.sections
                  for path in ("base.events.jsonl", "cand.events.jsonl"))
    print(render_diff(diff_sections(base, cand)))

Everything here is strictly off the hot path: the simulator never
imports this module, so profiling adds zero overhead to a run that does
not ask for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (Any, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Tuple, Type)

from repro.analysis import SampleStats, format_table
from repro.errors import ProfileError
from repro.obs.events import EVENT_KINDS, Event
from repro.obs.export import SCHEMA_VERSION, open_text

__all__ = [
    "ObjectCost", "CoreBreakdown", "LockStat", "MetricDelta",
    "EventDecoder", "iter_jsonl", "folded_stacks", "render_diff",
    "render_migration_matrix", "render_lock_table", "diff_metrics",
]


# ---------------------------------------------------------------------------
# ingest: JSONL -> typed events
# ---------------------------------------------------------------------------

#: The one JSONL line decoder: ``raw_decode`` skips the per-call
#: wrappers of ``json.loads``.
_LINE_DECODER = json.JSONDecoder()

#: Each kind's class and the exact key set of its lines: ``kind`` plus
#: the class's fields.
_SHAPES: Dict[str, Tuple[Type[Event], FrozenSet[str]]] = {
    kind: (cls, frozenset(("kind",) + cls.fields))
    for kind, cls in EVENT_KINDS.items()}


def _shaped(data: Any) -> Optional[Event]:
    """The event ``data`` encodes, when its key set is exactly its
    kind's; None for everything else (``meta``, legacy or malformed
    frames, non-objects), which :class:`EventDecoder` diagnoses."""
    try:
        cls, keys = _SHAPES[data["kind"]]
    except (KeyError, TypeError):
        return None
    if data.keys() != keys:
        return None
    event = object.__new__(cls)
    for name in cls.fields:
        setattr(event, name, data[name])
    return event


class EventDecoder:
    """Incremental JSONL/dict -> typed-event decoder.

    One decoder carries the stream's schema state (the ``meta`` header)
    across lines, so the file reader (:func:`iter_jsonl`) and the live
    watch feed share identical validation.  It refuses streams newer
    than :data:`~repro.obs.export.SCHEMA_VERSION` and lines whose fields
    differ from their kind's; headerless streams (written before the
    header existed) read as schema version 1, where fields added later
    default to None.  Error messages are prefixed with ``source``
    when given — with ``repro-analyze merge`` taking many shard files, a
    bare ``line N`` is ambiguous.

    Repeated ``meta`` lines are accepted mid-stream: concatenated shard
    recordings (``cat a.jsonl.gz b.jsonl.gz``) are valid streams.

    A line whose keys are exactly its kind's becomes an event at once;
    only the rest pay for the checks that name what is wrong.
    """

    def __init__(self, source: Optional[str] = None) -> None:
        self.source = source
        self.schema = 1          # headerless = legacy
        self.saw_meta = False

    def _error(self, where: str, message: str) -> ProfileError:
        prefix = f"{self.source}: " if self.source else ""
        return ProfileError(f"{prefix}{where}: {message}")

    def decode_line(self, raw: str, lineno: int) -> Optional[Event]:
        """Decode one text line; None for blanks and ``meta`` headers."""
        try:
            data, end = _LINE_DECODER.raw_decode(raw)
        except ValueError:
            data, end = None, 0
        # Fast path: one document filling the line (so json.loads would
        # read it alike) with exactly its kind's keys.
        event = _shaped(data) if raw[end:] in ("\n", "") else None
        if event is not None:
            return event
        line = raw.strip()
        if not line:
            return None
        where = f"line {lineno}"
        try:
            data = json.loads(line)
        except ValueError as exc:
            raise self._error(where, f"not valid JSON: {exc}")
        return self._diagnose(data, where)

    def decode(self, data: Any, where: str = "event") -> Optional[Event]:
        """Decode one ``as_dict``-shaped mapping; None for ``meta``."""
        event = _shaped(data)
        if event is None:
            event = self._diagnose(data, where)
        return event

    def _diagnose(self, data: Any, where: str) -> Optional[Event]:
        """Decode what :func:`_shaped` refused: ``meta`` headers and
        legacy lines, or raise the error that names what is wrong."""
        if not isinstance(data, dict) or "kind" not in data:
            raise self._error(
                where, "expected an object with a 'kind' field")
        kind = data["kind"]
        if kind == "meta":
            version = data.get("schema_version")
            if (isinstance(version, bool) or not isinstance(version, int)
                    or version < 1):
                raise self._error(
                    where, f"bad schema_version {version!r}")
            if version > SCHEMA_VERSION:
                raise self._error(
                    where, f"stream schema version {version} is "
                    f"newer than this analyzer ({SCHEMA_VERSION}); "
                    "upgrade repro")
            self.schema = version
            self.saw_meta = True
            return None
        cls = EVENT_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise self._error(where, f"unknown event kind {kind!r}")
        fields = cls.fields
        given = set(data) - {"kind"}
        missing = set(fields) - given
        extra = given - set(fields)
        if extra:
            raise self._error(
                where, f"{kind} carries unknown fields {sorted(extra)}")
        if missing and (self.schema >= SCHEMA_VERSION or self.saw_meta):
            raise self._error(
                where, f"{kind} is missing fields {sorted(missing)}")
        event = object.__new__(cls)
        for name in fields:
            setattr(event, name, data.get(name))
        return event


def iter_jsonl(path: str) -> Iterator[Event]:
    """Read a recording one event at a time: the one JSONL reader.

    A generator that never holds more than one event, so multi-GB fleet
    recordings can feed :class:`repro.obs.stream.StreamProfiler` at
    constant memory.  ``.jsonl.gz`` recordings (and concatenated gzip
    members) are opened transparently; errors name the file and line.
    """
    decoder = EventDecoder(source=path)
    with open_text(path, "r") as handle:
        for lineno, raw in enumerate(handle, 1):
            event = decoder.decode_line(raw, lineno)
            if event is not None:
                yield event


# ---------------------------------------------------------------------------
# per-object attribution
# ---------------------------------------------------------------------------

@dataclass
class ObjectCost:
    """Everything one object cost the machine, mirroring §4's monitor."""

    name: str
    ops: int = 0
    cycles: int = 0
    #: Operations with valid counter deltas (ran on one core end to end).
    attributed_ops: int = 0
    dram_loads: int = 0
    remote_hits: int = 0
    mem_stall_cycles: int = 0
    spin_cycles: int = 0
    #: Migrations triggered while operating on this object, and the
    #: cycles threads spent in flight for them.
    migrations: int = 0
    migration_cycles: int = 0
    #: Memory-event attribution (``capture_memory`` streams only).
    evictions: int = 0
    invalidations: int = 0

    @property
    def total_cycles(self) -> int:
        """Execution plus in-flight migration cycles — the ranking key."""
        return self.cycles + self.migration_cycles

    @property
    def cycles_per_op(self) -> float:
        return self.cycles / self.ops if self.ops else 0.0

    def per_attributed_op(self, value: int) -> float:
        return value / self.attributed_ops if self.attributed_ops else 0.0


# ---------------------------------------------------------------------------
# per-core time breakdown
# ---------------------------------------------------------------------------

@dataclass
class CoreBreakdown:
    """Where one core's cycles went over the recorded horizon.

    Derived purely from events, so it is an *attribution* of the horizon,
    not a cycle-exact ledger.  ``busy`` sums the cycles of operations
    that ran wholly on this core (those carry valid counter deltas and
    occupy the core continuously); ``mem_stall`` and ``spin`` are the
    attributed slices of that busy time.  An operation that migrated
    mid-flight spans several cores plus queue and flight time, so its
    cycles cannot be placed on any single core — it is reported in
    ``unplaced_ops``/``unplaced_cycles`` on the core it *finished* on
    instead of inflating ``busy``.  ``migrating`` is in-flight time of
    threads the core handed away.
    """

    core: int
    horizon: int
    ops: int = 0
    busy: int = 0
    mem_stall: int = 0
    spin: int = 0
    migrating: int = 0
    unplaced_ops: int = 0
    unplaced_cycles: int = 0

    @property
    def idle(self) -> int:
        """Horizon not covered by local busy or out-migration.

        Includes unannotated work and the unplaceable share of
        cross-core operations, so read it as an upper bound.
        """
        return max(0, self.horizon - self.busy - self.migrating)

    def frac(self, value: int) -> float:
        return value / self.horizon if self.horizon else 0.0


# ---------------------------------------------------------------------------
# lock contention
# ---------------------------------------------------------------------------

@dataclass
class LockStat:
    """Contention on one lock."""

    name: str
    contended_acquires: int = 0
    threads: set = field(default_factory=set)
    per_core: Dict[int, int] = field(default_factory=dict)

    @property
    def hottest_core(self) -> Optional[int]:
        if not self.per_core:
            return None
        return max(self.per_core, key=lambda c: (self.per_core[c], -c))


# ---------------------------------------------------------------------------
# folded stacks (speedscope / flamegraph.pl)
# ---------------------------------------------------------------------------

def folded_stacks(costs: Sequence[ObjectCost],
                  label: str = "run") -> List[str]:
    """``workload;object;phase cycles`` lines for flame-graph tools.

    ``costs`` is one run's :meth:`ObjectCostsReducer.result
    <repro.obs.stream.ObjectCostsReducer.result>`.  Phases per object:
    ``compute`` (cycles minus attributed stalls), ``mem-stall``,
    ``lock-spin``, ``migration``, and ``unattributed`` for operations
    whose deltas were lost to a mid-flight migration.  Load the output
    with speedscope (https://speedscope.app) or pipe it through
    ``flamegraph.pl``.
    """
    lines: List[str] = []
    for cost in costs:
        attributed_cycles = 0
        if cost.attributed_ops and cost.ops:
            # Deltas cover only attributed ops; scale busy cycles by the
            # attributed share so phases never exceed measured cycles.
            attributed_cycles = round(
                cost.cycles * cost.attributed_ops / cost.ops)
        stalls = min(attributed_cycles,
                     cost.mem_stall_cycles + cost.spin_cycles)
        compute = max(0, attributed_cycles - stalls)
        unattributed = max(0, cost.cycles - attributed_cycles)
        phases = (("compute", compute),
                  ("mem-stall", cost.mem_stall_cycles),
                  ("lock-spin", cost.spin_cycles),
                  ("migration", cost.migration_cycles),
                  ("unattributed", unattributed))
        for phase, cycles in phases:
            if cycles > 0:
                lines.append(f"{label};{cost.name};{phase} {cycles}")
    return lines


# ---------------------------------------------------------------------------
# diff rows
# ---------------------------------------------------------------------------

@dataclass
class MetricDelta:
    """One metric's baseline/candidate comparison."""

    name: str
    baseline: Optional[SampleStats]
    candidate: Optional[SampleStats]
    #: Plain values for count metrics (no per-sample distribution).
    baseline_value: Optional[float] = None
    candidate_value: Optional[float] = None

    @property
    def sampled(self) -> bool:
        return self.baseline is not None and self.candidate is not None

    @property
    def delta(self) -> float:
        if self.sampled:
            return self.candidate.mean - self.baseline.mean
        return (self.candidate_value or 0.0) - (self.baseline_value or 0.0)

    @property
    def delta_pct(self) -> Optional[float]:
        base = (self.baseline.mean if self.sampled
                else self.baseline_value)
        if not base:
            return None
        return 100.0 * self.delta / base

    @property
    def ci95(self) -> Optional[float]:
        """95% half-width of the delta (independent-samples normal
        approximation); None for count metrics."""
        if not self.sampled:
            return None
        se = (self.baseline.stderr ** 2
              + self.candidate.stderr ** 2) ** 0.5
        return 1.96 * se

    @property
    def significant(self) -> Optional[bool]:
        ci = self.ci95
        if ci is None:
            return None
        return abs(self.delta) > ci


def diff_metrics(baseline: Dict[str, Any],
                 candidate: Dict[str, Any]) -> List[MetricDelta]:
    """Deltas between two metrics-registry snapshots (JSON dicts).

    Scalar instruments compare directly; histogram summaries compare by
    their mean.  Metrics present on only one side are skipped.
    """
    deltas: List[MetricDelta] = []
    for name in sorted(set(baseline) & set(candidate)):
        bval, cval = baseline[name], candidate[name]
        if isinstance(bval, dict):
            bval, cval = bval.get("mean"), (cval or {}).get("mean")
            name = f"{name}.mean"
        if isinstance(bval, (int, float)) and isinstance(cval, (int, float)):
            deltas.append(MetricDelta(name, None, None,
                                      float(bval), float(cval)))
    return deltas


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def render_object_costs(costs: Sequence[ObjectCost],
                        top: int = 10) -> str:
    """Top-N attribution table, §4's per-object story as text."""
    if not costs:
        return "(no annotated operations recorded)"
    rows = []
    for cost in costs[:top]:
        stall_pct = (100.0 * cost.mem_stall_cycles / cost.cycles
                     if cost.cycles else 0.0)
        rows.append([
            cost.name,
            f"{cost.ops:,}",
            f"{cost.total_cycles:,}",
            f"{cost.cycles_per_op:,.0f}",
            f"{cost.per_attributed_op(cost.dram_loads):.2f}",
            f"{cost.per_attributed_op(cost.remote_hits):.2f}",
            f"{stall_pct:.0f}%",
            f"{cost.per_attributed_op(cost.spin_cycles):,.0f}",
            f"{cost.migrations:,}",
            f"{cost.migration_cycles:,}",
        ])
    table = format_table(
        ["object", "ops", "cycles", "cyc/op", "dram/op", "remote/op",
         "stall", "spin/op", "migr", "migr-cyc"], rows)
    shown = min(top, len(costs))
    dropped = len(costs) - shown
    note = f"; {dropped:,} rows dropped" if dropped else ""
    return (f"Per-object attribution (top {shown} of {len(costs)} "
            "by total cycles; dram/remote/stall/spin over attributed "
            f"ops{note})\n{table}")


def render_core_breakdown(cores: Sequence[CoreBreakdown]) -> str:
    if not cores:
        return "(no per-core activity recorded)"
    rows = []
    for item in cores:
        rows.append([
            str(item.core),
            f"{item.ops:,}",
            f"{100 * item.frac(item.busy):.0f}%",
            f"{100 * item.frac(item.mem_stall):.0f}%",
            f"{100 * item.frac(item.spin):.0f}%",
            f"{100 * item.frac(item.migrating):.0f}%",
            f"{100 * item.frac(item.idle):.0f}%",
            f"{item.unplaced_ops:,}",
        ])
    table = format_table(
        ["core", "ops", "busy", "mem-stall", "spin", "migrating",
         "idle/other", "x-core ops"], rows)
    horizon = cores[0].horizon
    return (f"Per-core time breakdown over {horizon:,} cycles "
            "(busy = operations that ran wholly on the core; "
            "x-core ops finished here\nafter migrating, so their cycles "
            f"are not placed on any single core)\n{table}")


def render_migration_matrix(matrix: Dict[Tuple[int, int], int]) -> str:
    if not matrix:
        return "(no migrations recorded)"
    cores = sorted({core for pair in matrix for core in pair})
    headers = ["from\\to"] + [str(core) for core in cores] + ["total"]
    rows = []
    for source in cores:
        row = [str(source)]
        total = 0
        for target in cores:
            count = matrix.get((source, target), 0)
            total += count
            row.append(f"{count:,}" if count else ".")
        row.append(f"{total:,}")
        rows.append(row)
    return ("Core-to-core migration matrix (rows = departing core)\n"
            + format_table(headers, rows))


def render_lock_table(locks: Sequence[LockStat], top: int = 10) -> str:
    if not locks:
        return "(no lock contention recorded)"
    rows = [[stat.name, f"{stat.contended_acquires:,}",
             str(len(stat.threads)), str(stat.hottest_core)]
            for stat in locks[:top]]
    shown = min(top, len(locks))
    dropped = len(locks) - shown
    note = (f" (top {shown} of {len(locks)}; {dropped:,} rows dropped)"
            if dropped else "")
    return (f"Lock contention (one event per contended acquire){note}\n"
            + format_table(["lock", "contended", "threads",
                            "hottest core"], rows))


def render_diff(deltas: Sequence[MetricDelta]) -> str:
    """Diff table; sampled metrics carry ±CI95 and a significance flag."""
    if not deltas:
        return "(no comparable metrics)"
    rows = []
    for delta in deltas:
        if delta.sampled:
            base = (f"{delta.baseline.mean:,.1f}"
                    f"±{1.96 * delta.baseline.stderr:,.1f}")
            cand = (f"{delta.candidate.mean:,.1f}"
                    f"±{1.96 * delta.candidate.stderr:,.1f}")
            verdict = ("significant" if delta.significant
                       else "within noise")
            change = f"{delta.delta:+,.1f} ± {delta.ci95:,.1f}"
        else:
            base = f"{delta.baseline_value:,.0f}"
            cand = f"{delta.candidate_value:,.0f}"
            verdict = ""
            change = f"{delta.delta:+,.0f}"
        pct = delta.delta_pct
        change += f" ({pct:+.1f}%)" if pct is not None else ""
        rows.append([delta.name, base, cand, change, verdict])
    return format_table(["metric", "baseline", "candidate", "delta", ""],
                        rows)
