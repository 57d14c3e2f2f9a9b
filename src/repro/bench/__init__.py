"""Benchmark harness regenerating the paper's figures and ablations."""

from repro.bench.ascii_plot import plot
from repro.bench.figures import (EXPERIMENTS, BENCH_SCALE, FigureResult,
                                 Profile, PROFILES, clustering_comparison,
                                 figure_2, figure_4a, figure_4b,
                                 future_multicore, migration_cost_sweep,
                                 object_clustering_ablation,
                                 packing_complexity, replacement_ablation,
                                 replication_ablation)
from repro.bench.harness import BenchPoint, Series, run_point, run_series
from repro.bench.report import figure_report, save_report, table

__all__ = [
    "BENCH_SCALE",
    "BenchPoint",
    "EXPERIMENTS",
    "FigureResult",
    "PROFILES",
    "Profile",
    "Series",
    "clustering_comparison",
    "figure_2",
    "figure_4a",
    "figure_4b",
    "figure_report",
    "future_multicore",
    "migration_cost_sweep",
    "object_clustering_ablation",
    "packing_complexity",
    "plot",
    "replacement_ablation",
    "replication_ablation",
    "run_point",
    "run_series",
    "save_report",
    "table",
]
