"""Benchmark harness: one measured point and parameter sweeps.

Every figure and ablation reduces to the same experiment: build a machine,
attach a scheduler, spawn the workload, warm up, measure throughput over a
window.  :func:`run_point` is that experiment; :func:`sweep` maps it over
a parameter axis, resolving scheduler names through
:mod:`repro.sched.registry`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cpu.machine import Machine
from repro.cpu.topology import MachineSpec
from repro.errors import ConfigError
from repro.sched import registry
from repro.sched.base import SchedulerRuntime
from repro.sim.engine import Simulator
from repro.workloads.dirlookup import DirectoryLookupWorkload, DirWorkloadSpec

SchedulerFactory = Callable[[], SchedulerRuntime]


@dataclass
class BenchPoint:
    """One measured throughput point."""

    scheduler: str
    x: float                      # sweep coordinate (e.g. total KB)
    kops_per_sec: float
    ops: int
    migrations: int
    dram_lines: int
    cross_chip_messages: int
    #: Coherence traffic only (transfers + invalidations, no migration
    #: context payload).
    cross_chip_data_messages: int = 0
    scheduler_stats: Dict = field(default_factory=dict)

    def __str__(self) -> str:
        return (f"{self.scheduler:<22} x={self.x:<10g} "
                f"{self.kops_per_sec:>10,.0f} kops/s")


def run_point(machine_spec: MachineSpec,
              scheduler_factory: SchedulerFactory,
              workload_spec: DirWorkloadSpec,
              warmup_cycles: int = 2_000_000,
              measure_cycles: int = 3_000_000,
              x: Optional[float] = None,
              workload_factory=None,
              seed: Optional[int] = None,
              obs=None) -> BenchPoint:
    """Measure one (machine, scheduler, workload) combination.

    Throughput is counted over the measurement window only, after a
    warm-up long enough for caches to fill and CoreTime's monitor to
    assign objects.  ``seed`` overrides the workload spec's RNG seed;
    ``obs`` attaches a (shareable) :class:`~repro.obs.Observability`
    pipeline to the simulator.
    """
    if warmup_cycles < 0 or measure_cycles <= 0:
        raise ConfigError("warmup must be >= 0 and measure window > 0")
    if seed is not None:
        workload_spec = dataclasses.replace(workload_spec, seed=seed)
    machine = Machine(machine_spec)
    scheduler = scheduler_factory()
    simulator = Simulator(machine, scheduler, obs=obs)
    if workload_factory is not None:
        workload = workload_factory(machine, workload_spec)
    else:
        workload = DirectoryLookupWorkload(machine, workload_spec)
    workload.spawn_all(simulator)
    if warmup_cycles:
        simulator.run(until=warmup_cycles)
    interconnect = machine.memory.interconnect
    ops_before = simulator.total_ops
    migrations_before = simulator.total_migrations
    dram_before = machine.memory.dram.total_lines_served
    xchip_before = interconnect.cross_chip_messages()
    data_before = interconnect.data_messages()
    simulator.run(until=warmup_cycles + measure_cycles)
    window_ops = simulator.total_ops - ops_before
    seconds = machine_spec.seconds(measure_cycles)
    return BenchPoint(
        scheduler=scheduler.name,
        x=x if x is not None else workload_spec.total_data_bytes / 1024,
        kops_per_sec=window_ops / seconds / 1e3,
        ops=window_ops,
        migrations=simulator.total_migrations - migrations_before,
        dram_lines=machine.memory.dram.total_lines_served - dram_before,
        cross_chip_messages=(
            interconnect.cross_chip_messages() - xchip_before),
        cross_chip_data_messages=(
            interconnect.data_messages() - data_before),
        scheduler_stats=scheduler.stats(),
    )


@dataclass
class Series:
    """One scheduler's curve across a sweep."""

    label: str
    points: List[BenchPoint]

    @property
    def xs(self) -> List[float]:
        return [point.x for point in self.points]

    @property
    def ys(self) -> List[float]:
        return [point.kops_per_sec for point in self.points]

    def at(self, x: float) -> BenchPoint:
        for point in self.points:
            if point.x == x:
                return point
        raise KeyError(f"no point at x={x} in series {self.label}")


def _case_seed(seed: Optional[int], scheduler_name: str,
               index: int) -> Optional[int]:
    """Per-point workload seed for a sweep.

    A root ``seed`` fans out into one independent seed per (scheduler,
    point) through :func:`repro.sim.rng.derive_seed` — the same helper
    ``repro-sweep`` and ``repro.verify fuzz`` use — so a point's seed
    depends only on its coordinates, never on execution order or which
    tool ran it.  None keeps each workload spec's own seed.
    """
    if seed is None:
        return None
    from repro.sim.rng import derive_seed
    return derive_seed(seed, scheduler_name, index)


def sweep(machine_spec: MachineSpec,
          scheduler_names: Sequence[str],
          workload_specs: Sequence[DirWorkloadSpec],
          warmup_cycles: int = 2_000_000,
          measure_cycles: int = 3_000_000,
          xs: Optional[Sequence[float]] = None,
          workload_factory=None,
          schedulers: Optional[Dict[str, SchedulerFactory]] = None,
          seed: Optional[int] = None,
          obs=None,
          workers: int = 0) -> List[Series]:
    """Run every scheduler over every workload spec; returns one
    :class:`Series` per scheduler, in the order given.

    ``workers=0`` (the default) evaluates points serially in-process.
    On either path a :class:`KeyboardInterrupt` re-raises with the
    completed points attached as ``exc.partial_series``, so a long
    interactive sweep never loses finished work.  ``workers=N`` shards
    the grid over ``N`` processes via :mod:`repro.sweep` — identical
    per-point results —
    which requires registry-named schedulers and plain directory-lookup
    workloads (custom ``schedulers`` factories or a ``workload_factory``
    cannot cross a process boundary; neither can a shared ``obs``
    pipeline).
    """
    if workers:
        return _sweep_parallel(machine_spec, scheduler_names,
                               workload_specs, warmup_cycles,
                               measure_cycles, xs, workload_factory,
                               schedulers, seed, obs, workers)
    lookup = schedulers.__getitem__ if schedulers else registry.resolve
    result: List[Series] = []
    points: List[BenchPoint] = []
    try:
        for name in scheduler_names:
            factory = lookup(name)
            points = []
            for index, workload_spec in enumerate(workload_specs):
                x = xs[index] if xs is not None else None
                points.append(run_point(
                    machine_spec, factory, workload_spec,
                    warmup_cycles=warmup_cycles,
                    measure_cycles=measure_cycles, x=x,
                    workload_factory=workload_factory,
                    seed=_case_seed(seed, name, index), obs=obs))
            result.append(Series(name, points))
    except KeyboardInterrupt as interrupt:
        # Flush what finished: completed series plus the partial one, so
        # callers (and the CLI) can keep hours of completed points.
        if points:
            result.append(Series(f"{name} (partial)", points))
        interrupt.partial_series = result
        raise
    return result


def _sweep_parallel(machine_spec, scheduler_names, workload_specs,
                    warmup_cycles, measure_cycles, xs, workload_factory,
                    schedulers, seed, obs, workers: int) -> List[Series]:
    """The ``workers>0`` path: shard the grid through repro.sweep."""
    from repro.errors import ReproError
    from repro.sweep.runner import RunnerOptions, run_cases
    from repro.sweep.spec import SweepCase
    if schedulers is not None or workload_factory is not None:
        raise ConfigError(
            "parallel sweep supports registry schedulers and the default "
            "directory-lookup workload only (factories cannot cross a "
            "process boundary); use workers=0")
    if obs is not None:
        raise ConfigError(
            "parallel sweep cannot share one observability pipeline; "
            "use workers=0 for --trace-out/--events-out runs")
    for name in scheduler_names:
        registry.entry(name)             # unknown names fail before forking
    grid = []        # (scheduler, point index) in result order
    cases = []
    for name in scheduler_names:
        for index, workload_spec in enumerate(workload_specs):
            if not isinstance(workload_spec, DirWorkloadSpec):
                raise ConfigError(
                    "parallel sweep expects DirWorkloadSpec workloads; "
                    f"got {type(workload_spec).__name__}")
            grid.append((name, index))
            cases.append(SweepCase(
                machine_label=machine_spec.name,
                machine=machine_spec,
                scheduler=name,
                workload_kind="dirlookup",
                workload_label=f"w{index}",
                workload=workload_spec,
                seed_index=index,
                seed=_case_seed(seed, name, index),
                warmup_cycles=warmup_cycles,
                measure_cycles=measure_cycles,
                x=xs[index] if xs is not None else None))
    try:
        outcome = run_cases(cases, options=RunnerOptions(workers=workers))
    except KeyboardInterrupt as interrupt:
        # Mirror the workers=0 contract: completed points ride along on
        # the exception (run_cases attached the raw records).
        records = getattr(interrupt, "partial_records", {})
        partial: List[Series] = []
        for name in scheduler_names:
            points = []
            for case, (case_name, index) in zip(cases, grid):
                if case_name != name:
                    continue
                record = records.get(case.key())
                if record is not None and record["status"] == "ok":
                    points.append((index, BenchPoint(**record["point"])))
            if not points:
                continue
            label = (name if len(points) == len(workload_specs)
                     else f"{name} (partial)")
            partial.append(Series(
                label, [point for _, point in sorted(points)]))
        interrupt.partial_series = partial
        raise
    by_coord: Dict = {}
    for case, (name, index) in zip(cases, grid):
        record = outcome.records[case.key()]
        if record is None or record["status"] != "ok":
            error = record["error"] if record else "never ran"
            raise ReproError(
                f"sweep point {name}/{index} failed: {error}")
        by_coord[(name, index)] = BenchPoint(**record["point"])
    return [Series(name, [by_coord[(name, index)]
                          for index in range(len(workload_specs))])
            for name in scheduler_names]
