"""repro.sweep — parallel, resumable experiment orchestration.

The subsystem that turns "evaluate every (machine, scheduler, workload,
seed) cell of this grid" from a serial in-process loop into a declarative,
shardable, crash-safe job:

* :class:`~repro.sweep.spec.SweepSpec` declares the grid (named axes +
  filters) and expands it into content-hashable
  :class:`~repro.sweep.spec.SweepCase` cells;
* :func:`~repro.sweep.runner.run_cases` executes cells serially
  (``workers=0``), across a local subprocess pool, or — via
  :mod:`repro.sweep.dist` — over a TCP worker fleet, with leases,
  heartbeats, per-case timeout, bounded retry and crash isolation —
  :func:`~repro.sweep.runner.run_sweep` runs a spec's cases through
  it, and so does every ``repro.bench`` experiment;
* :class:`~repro.sweep.store.ResultStore` caches finished cells on disk
  keyed by (case hash, code fingerprint) and journals progress so a
  killed sweep resumes without recomputing;
* :mod:`~repro.sweep.aggregate` folds seeds into
  :class:`repro.analysis.SampleStats`, renders A/B scheduler tables and
  exports schema-v5 obs event streams;
* ``repro-sweep`` (:mod:`repro.sweep.cli`) is the console front end:
  ``run`` / ``status`` / ``resume`` / ``report`` / ``diff`` plus the
  distributed ``serve`` / ``work`` / ``tail``.

Quick use::

    from repro.sweep import RunnerOptions, run_sweep
    from repro.sweep.presets import fig4a
    from repro.sweep.store import ResultStore

    spec = fig4a(n_seeds=3)
    store = ResultStore("benchmarks/results/sweeps/fig4a").create(spec)
    outcome = run_sweep(spec, store, RunnerOptions(workers=8))
"""

from repro.sweep.aggregate import (SweepCell, compare_schedulers,
                                   diff_cells, export_events_jsonl,
                                   fold_records, render_report)
from repro.sweep.runner import (RunnerOptions, SweepOutcome,
                                execute_case_record, run_cases, run_sweep)
from repro.sweep.spec import (MachineAxis, SweepCase, SweepSpec,
                              WorkloadAxis, code_fingerprint)
from repro.sweep.store import ResultStore, StoreError, default_sweep_root

__all__ = [
    "MachineAxis",
    "ResultStore",
    "RunnerOptions",
    "StoreError",
    "SweepCase",
    "SweepCell",
    "SweepOutcome",
    "SweepSpec",
    "WorkloadAxis",
    "code_fingerprint",
    "compare_schedulers",
    "default_sweep_root",
    "diff_cells",
    "execute_case_record",
    "export_events_jsonl",
    "fold_records",
    "render_report",
    "run_cases",
    "run_sweep",
]
