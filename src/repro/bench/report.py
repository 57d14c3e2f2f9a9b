"""Text reports for benchmark results."""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import format_table
from repro.bench.ascii_plot import plot
from repro.bench.harness import Series


def _results_dir() -> Path:
    """Locate ``benchmarks/results/`` for report output.

    Walk up from this module looking for the repo root (the directory
    holding ``pyproject.toml``); from a checkout that puts reports in
    the tracked ``benchmarks/results/`` tree.  When the package runs
    from an installed wheel or zipapp there is no repo root above it,
    so fall back to ``benchmarks/results`` under the current directory.
    """
    for parent in Path(__file__).resolve().parents:
        if (parent / "pyproject.toml").is_file():
            return parent / "benchmarks" / "results"
    return Path.cwd() / "benchmarks" / "results"


#: Directory where benchmark runs drop their text reports.
RESULTS_DIR = str(_results_dir())


def table(series_list: Sequence[Series], x_header: str = "x") -> str:
    """Aligned table: one row per x, one column per scheduler."""
    if not series_list:
        return "(no data)"
    xs = series_list[0].xs
    headers = [x_header] + [s.label for s in series_list]
    rows: List[List[str]] = []
    for index, x in enumerate(xs):
        row = [f"{x:g}"]
        for series in series_list:
            row.append(f"{series.points[index].kops_per_sec:,.0f}")
        if len(series_list) >= 2:
            base = series_list[0].points[index].kops_per_sec
            other = series_list[1].points[index].kops_per_sec
            row.append(f"{other / base:.2f}x" if base else "-")
        rows.append(row)
    if len(series_list) >= 2:
        headers = headers + [f"{series_list[1].label}/{series_list[0].label}"]
    return format_table(headers, rows)


def figure_report(title: str, series_list: Sequence[Series],
                  x_label: str, y_label: str,
                  notes: Optional[str] = None) -> str:
    """Complete text report: chart + table + notes."""
    xs = series_list[0].xs if series_list else []
    chart = plot(xs, [s.ys for s in series_list],
                 [s.label for s in series_list],
                 title=title, x_label=x_label, y_label=y_label)
    parts = [chart, "", table(series_list, x_header=x_label)]
    if notes:
        parts.extend(["", notes])
    return "\n".join(parts)


def save_report(name: str, text: str) -> str:
    """Write a report under ``benchmarks/results/``; returns the path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path
