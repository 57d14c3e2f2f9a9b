"""Fold per-case sweep records into statistics, tables and exports.

A sweep's unit of truth is one record per (machine, scheduler, workload,
seed) cell.  Reports want the seed axis collapsed:
:func:`fold_records` groups records into :class:`SweepCell`s whose
``stats`` is a :class:`repro.analysis.SampleStats` over the per-seed
throughputs (mean, stdev, 95% CI) plus p50/p95 quantiles.  A/B scheduler
comparisons reuse :class:`repro.analysis.SpeedupResult`: seeds are
paired, so a "robust" speedup means the candidate won on *every* seed.

``export_events_jsonl`` writes the sweep as a schema-version-5 obs event
stream (``sweep_start``/``sweep_end``/``sweep_fail``), readable by
``repro.obs.profile.iter_jsonl``, the reader behind ``repro-analyze``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis import (SampleStats, SpeedupResult, format_table,
                            summarise)
from repro.obs.events import (Event, SweepCaseFailed, SweepCaseFinished,
                              SweepCaseStarted)
from repro.obs.export import write_jsonl


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


#: Grouping key of one aggregated cell: the grid minus the seed axis.
CellKey = Tuple[str, str, str]          # (machine, scheduler, workload)


@dataclass
class SweepCell:
    """All seeds of one (machine, scheduler, workload) coordinate."""

    machine: str
    scheduler: str
    workload: str
    x: Optional[float]
    #: kops/s per seed, in seed_index order.
    values: List[float]
    seeds: List[int]
    stats: SampleStats

    @property
    def p50(self) -> float:
        return percentile(self.values, 0.50)

    @property
    def p95(self) -> float:
        return percentile(self.values, 0.95)

    @property
    def key(self) -> CellKey:
        return (self.machine, self.scheduler, self.workload)


def ok_records(records: Iterable[Optional[dict]]) -> List[dict]:
    return [r for r in records
            if r is not None and r.get("status") == "ok"]


def failed_records(records: Iterable[Optional[dict]]) -> List[dict]:
    return [r for r in records
            if r is not None and r.get("status") == "failed"]


def scheduler_label(case: dict) -> str:
    """A case's scheduler name with its ``CoreTimeConfig`` overrides, if
    it has any: ``coretime[packing=hash]``.  A record written before
    cases carried overrides has none."""
    config = case.get("scheduler_config") or {}
    if not config:
        return case["scheduler"]
    overrides = ",".join(f"{name}={value}"
                         for name, value in sorted(config.items()))
    return f"{case['scheduler']}[{overrides}]"


def fold_records(records: Iterable[Optional[dict]]) -> List[SweepCell]:
    """Collapse the seed axis: one cell per grid coordinate, where a
    scheduler under different overrides is a different coordinate."""
    grouped: Dict[CellKey, List[dict]] = {}
    for record in ok_records(records):
        case = record["case"]
        key = (case["machine_label"], scheduler_label(case),
               case["workload_label"])
        grouped.setdefault(key, []).append(record)
    cells = []
    for key in sorted(grouped):
        group = sorted(grouped[key],
                       key=lambda r: r["case"]["seed_index"])
        values = [r["point"]["kops_per_sec"] for r in group]
        case = group[0]["case"]
        cells.append(SweepCell(
            machine=key[0], scheduler=key[1], workload=key[2],
            x=case.get("x"), values=values,
            seeds=[r["case"]["seed_index"] for r in group],
            stats=summarise(values)))
    return cells


def compare_schedulers(cells: Sequence[SweepCell], baseline: str,
                       candidate: str) -> Dict[Tuple[str, str],
                                               SpeedupResult]:
    """Seed-paired A/B comparison per (machine, workload) coordinate."""
    by_key = {cell.key: cell for cell in cells}
    comparisons: Dict[Tuple[str, str], SpeedupResult] = {}
    for cell in cells:
        if cell.scheduler != baseline:
            continue
        other = by_key.get((cell.machine, candidate, cell.workload))
        if other is None or other.seeds != cell.seeds:
            continue
        ratios = [c / b if b else float("inf")
                  for b, c in zip(cell.values, other.values)]
        comparisons[(cell.machine, cell.workload)] = SpeedupResult(
            cell.stats, other.stats, ratios)
    return comparisons


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_cells(cells: Sequence[SweepCell]) -> str:
    """Per-cell statistics table (kops/s across seeds)."""
    if not cells:
        return "(no completed cells)"
    rows = []
    for cell in cells:
        low, high = cell.stats.ci95()
        rows.append([
            cell.machine, cell.workload, cell.scheduler,
            str(cell.stats.n),
            f"{cell.stats.mean:,.0f}",
            f"[{low:,.0f}, {high:,.0f}]",
            f"{cell.p50:,.0f}", f"{cell.p95:,.0f}",
        ])
    return format_table(
        ["machine", "workload", "scheduler", "seeds", "mean kops/s",
         "95% CI", "p50", "p95"], rows)


def render_comparison(cells: Sequence[SweepCell], baseline: str,
                      candidate: str) -> str:
    """A/B table: ``candidate`` vs ``baseline`` per grid coordinate."""
    comparisons = compare_schedulers(cells, baseline, candidate)
    if not comparisons:
        return (f"(no paired cells for {candidate} vs {baseline} — "
                "check scheduler names and that both completed)")
    rows = []
    for (machine, workload), result in sorted(comparisons.items()):
        rows.append([
            machine, workload,
            f"{result.baseline.mean:,.0f}",
            f"{result.candidate.mean:,.0f}",
            f"{result.mean_speedup:.2f}x",
            "robust" if result.robust else "mixed",
        ])
    return format_table(
        ["machine", "workload", f"{baseline} kops/s",
         f"{candidate} kops/s", "speedup", "across seeds"], rows)


def render_failures(records: Iterable[Optional[dict]],
                    limit: int = 10) -> str:
    failures = failed_records(records)
    if not failures:
        return ""
    lines = [f"{len(failures)} failed cell(s):"]
    for record in failures[:limit]:
        case = record["case"]
        label = (f"{case['machine_label']}/{scheduler_label(case)}/"
                 f"{case['workload_label']}/s{case['seed_index']}")
        lines.append(f"  {label}: {record.get('error')}")
    if len(failures) > limit:
        lines.append(f"  ... and {len(failures) - limit} more")
    return "\n".join(lines)


def render_report(name: str, records: Iterable[Optional[dict]],
                  schedulers: Sequence[str]) -> str:
    """Full sweep report: stats per cell + every pairwise A/B table."""
    records = list(records)
    cells = fold_records(records)
    parts = [f"sweep report: {name}", "", render_cells(cells)]
    baseline = schedulers[0] if schedulers else None
    for candidate in list(schedulers)[1:]:
        parts.extend(["",
                      f"-- {candidate} vs {baseline} --",
                      render_comparison(cells, baseline, candidate)])
    failures = render_failures(records)
    if failures:
        parts.extend(["", failures])
    return "\n".join(parts)


def render_rank(cells: Sequence[SweepCell], pivot: str) -> str:
    """Ranked scheduler x workload speedup matrix against ``pivot``.

    One row per scheduler, one column per (machine, workload)
    coordinate the pivot completed, each cell the seed-paired mean
    speedup of that scheduler over the pivot (``compare_schedulers``
    pairing — a '*' marks a robust cell, i.e. the scheduler won or
    lost on *every* seed the same way).  Rows are ranked by the
    geometric mean across coordinates, so the table reads top-to-bottom
    as the tournament result.
    """
    pivot_cells = [cell for cell in cells if cell.scheduler == pivot]
    if not pivot_cells:
        return f"(no completed cells for pivot {pivot!r})"
    # Columns in sweep-axis order: by machine, then x coordinate.
    coords = [(cell.machine, cell.workload)
              for cell in sorted(
                  pivot_cells,
                  key=lambda c: (c.machine,
                                 c.x if c.x is not None else float("inf"),
                                 c.workload))]
    many_machines = len({machine for machine, _ in coords}) > 1
    def coord_label(machine: str, workload: str) -> str:
        return f"{machine}/{workload}" if many_machines else workload
    schedulers = sorted({cell.scheduler for cell in cells})
    rows = []                     # (geomean, name, per-coord cells, text)
    for scheduler in schedulers:
        if scheduler == pivot:
            continue
        comparisons = compare_schedulers(cells, pivot, scheduler)
        texts = []
        ratios = []
        for coord in coords:
            result = comparisons.get(coord)
            if result is None:
                texts.append("-")
                continue
            ratios.append(result.mean_speedup)
            consistent = (all(r > 1.0 for r in result.per_seed_ratios)
                          or all(r < 1.0 for r in result.per_seed_ratios))
            texts.append(f"{result.mean_speedup:.2f}x"
                         + ("*" if consistent else ""))
        positive = [r for r in ratios if r > 0]
        if positive:
            geomean = math.exp(sum(math.log(r) for r in positive)
                               / len(positive))
            mean_text = f"{geomean:.2f}x"
        else:
            geomean = float("-inf")
            mean_text = "-"
        rows.append((geomean, scheduler, texts, mean_text))
    # The pivot ranks where its 1.00x geomean falls.
    ranked = sorted(
        rows + [(1.0, pivot, ["1.00x" for _ in coords], "1.00x")],
        key=lambda row: (-row[0], row[1]))
    table_rows = [
        [str(position + 1), scheduler] + texts + [mean_text]
        for position, (_, scheduler, texts, mean_text)
        in enumerate(ranked)]
    headers = (["#", "scheduler"]
               + [coord_label(machine, workload)
                  for machine, workload in coords]
               + ["geomean"])
    legend = (f"speedup vs {pivot} (seed-paired mean; "
              "* = same winner on every seed)")
    return format_table(headers, table_rows) + "\n" + legend


def render_rank_report(name: str, records: Iterable[Optional[dict]],
                       pivot: str) -> str:
    """The ``report --rank`` payload: ranked matrix + failures."""
    records = list(records)
    parts = [f"tournament rank: {name} (pivot: {pivot})", "",
             render_rank(fold_records(records), pivot)]
    failures = render_failures(records)
    if failures:
        parts.extend(["", failures])
    return "\n".join(parts)


def diff_cells(base_cells: Sequence[SweepCell],
               cand_cells: Sequence[SweepCell]) -> str:
    """Cell-by-cell mean deltas between two sweeps (e.g. two commits)."""
    base_by_key = {cell.key: cell for cell in base_cells}
    rows = []
    for cell in cand_cells:
        base = base_by_key.get(cell.key)
        if base is None:
            continue
        delta = ((cell.stats.mean - base.stats.mean)
                 / base.stats.mean * 100 if base.stats.mean else 0.0)
        significant = (cell.stats.ci95()[0] > base.stats.ci95()[1]
                       or cell.stats.ci95()[1] < base.stats.ci95()[0])
        rows.append([
            cell.machine, cell.workload, cell.scheduler,
            f"{base.stats.mean:,.0f}", f"{cell.stats.mean:,.0f}",
            f"{delta:+.1f}%",
            "CI-separated" if significant else "overlapping",
        ])
    if not rows:
        return "(no overlapping cells)"
    return format_table(
        ["machine", "workload", "scheduler", "base kops/s",
         "cand kops/s", "delta", "confidence"], rows)


# ---------------------------------------------------------------------------
# JSONL export (repro-analyze-compatible event stream)
# ---------------------------------------------------------------------------

def records_to_events(records: Iterable[Optional[dict]]) -> List[Event]:
    """Sweep records as a deterministic obs event stream.

    One ``sweep_start`` + ``sweep_end``/``sweep_fail`` pair per record,
    ordered by case key so two stores holding the same results export
    byte-identical streams regardless of execution order.
    """
    events: List[Event] = []
    ordered = sorted((r for r in records if r is not None),
                     key=lambda r: r["case_key"])
    for sequence, record in enumerate(ordered):
        case = record["case"]
        events.append(SweepCaseStarted(
            sequence, record["case_key"], case["scheduler"],
            case["workload_label"], case.get("seed")))
        if record["status"] == "ok":
            events.append(SweepCaseFinished(
                sequence, record["case_key"], case["scheduler"],
                case["workload_label"], record["point"]["kops_per_sec"]))
        else:
            events.append(SweepCaseFailed(
                sequence, record["case_key"], case["scheduler"],
                case["workload_label"],
                record.get("error") or "unknown"))
    return events


def export_events_jsonl(path: str,
                        records: Iterable[Optional[dict]]) -> str:
    """Write the sweep as schema-v5 JSONL (``repro-analyze`` ingests it)."""
    return write_jsonl(path, records_to_events(records))
