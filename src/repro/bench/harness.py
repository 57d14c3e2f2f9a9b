"""Benchmark harness: one measured point and the cases that name them.

Every figure and ablation reduces to the same experiment: build a machine,
attach a scheduler, spawn the workload, warm up, measure throughput over a
window.  :func:`run_point` is that experiment; :func:`execute_case` runs
it for one :class:`~repro.sweep.spec.SweepCase`.  Resolving a case lives
here, not in :mod:`repro.sweep`, because it decides what a cell measures
and so must be inside :func:`~repro.sweep.spec.code_fingerprint`.
:func:`run_series` measures an experiment's cases through
:func:`repro.sweep.runner.run_cases`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cpu.machine import Machine
from repro.cpu.topology import MachineSpec
from repro.errors import ConfigError, ReproError
from repro.sched import registry
from repro.sched.base import SchedulerRuntime
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.sweep.runner import RunnerOptions, run_cases
from repro.sweep.spec import SweepCase
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


# ---------------------------------------------------------------------------
# case resolution
# ---------------------------------------------------------------------------

def scheduler_factory(name: str,
                      config: Mapping = ()) -> SchedulerFactory:
    """The factory a case's scheduler resolves to.

    Without ``config`` that is the registry entry ``name`` (an unknown
    name raises :class:`ConfigError` listing every registered one).
    ``config`` holds :class:`~repro.core.coretime.CoreTimeConfig`
    overrides, which only ``coretime`` takes; they apply on top of the
    benchmark defaults of :func:`~repro.sched.registry.coretime_factory`.
    """
    config = dict(config)
    if not config:
        return registry.resolve(name)
    if name != "coretime":
        raise ConfigError(f"scheduler {name!r} takes no config; "
                          "CoreTimeConfig overrides apply to 'coretime'")
    from repro.core.coretime import CoreTimeConfig
    known = {f.name for f in dataclasses.fields(CoreTimeConfig)}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ConfigError(f"unknown CoreTimeConfig field(s) {unknown}")
    return registry.coretime_factory(**config)


def workload_factory(kind: str):
    """``run_point``-compatible factory for a workload kind (None means
    run_point's default, the directory-lookup workload)."""
    if kind == "dirlookup":
        return None
    if kind == "synthetic":
        from repro.workloads.synthetic import ObjectOpsWorkload
        return ObjectOpsWorkload
    if kind == "webserver":
        from repro.workloads.webserver import WebServerWorkload
        return WebServerWorkload
    if kind == "scenario":
        from repro.workloads import scenarios
        return scenarios.build
    raise ConfigError(f"unknown workload kind {kind!r}")


def execute_case(case: SweepCase, obs=None) -> BenchPoint:
    """Run one case and return its :class:`BenchPoint` (raises on error)."""
    return run_point(
        case.machine,
        scheduler_factory(case.scheduler, case.scheduler_config),
        case.workload,
        warmup_cycles=case.warmup_cycles,
        measure_cycles=case.measure_cycles,
        x=case.x, workload_factory=workload_factory(case.workload_kind),
        seed=case.seed, obs=obs)


# ---------------------------------------------------------------------------
# experiments: cases in, series out
# ---------------------------------------------------------------------------

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


def make_case(machine_spec: MachineSpec, scheduler: str, workload_spec,
              warmup_cycles: int, measure_cycles: int, *,
              config: Optional[Mapping] = None, kind: str = "dirlookup",
              index: int = 0, x: Optional[float] = None,
              seed: Optional[int] = None) -> SweepCase:
    """One experiment point as a case; an unknown scheduler or override
    fails here, before any case runs."""
    scheduler_factory(scheduler, config or ())
    return SweepCase(
        machine_label=machine_spec.name, machine=machine_spec,
        scheduler=scheduler, scheduler_config=config or {},
        workload_kind=kind, workload_label=f"w{index}",
        workload=workload_spec, seed_index=index, seed=seed,
        warmup_cycles=warmup_cycles, measure_cycles=measure_cycles, x=x)


def grid(schedulers: Mapping[str, Optional[Mapping]],
         machine_spec: MachineSpec, workload_specs: Sequence,
         warmup_cycles: int, measure_cycles: int, *,
         kind: str = "dirlookup", xs: Optional[Sequence[float]] = None,
         seed: Optional[int] = None) -> List[Tuple[str, List[SweepCase]]]:
    """Scheduler-major ``(label, cases)`` lines: every workload spec under
    every scheduler.

    ``schedulers`` maps a label to ``CoreTimeConfig`` overrides for a
    ``coretime`` curve, or to None for the registry scheduler the label
    names.  ``xs`` defaults to each spec's data KB.  A root ``seed``
    fans out per point as ``derive_seed(seed, label, index)``, the
    derivation ``repro-sweep`` and ``repro.verify fuzz`` use; None keeps
    each workload spec's own seed.
    """
    if xs is None:
        xs = [spec.total_data_bytes / 1024 for spec in workload_specs]
    return [(label, [make_case(
        machine_spec, label if config is None else "coretime", spec,
        warmup_cycles, measure_cycles, config=config, kind=kind,
        index=index, x=xs[index],
        seed=derive_seed(seed, label, index) if seed is not None else None)
        for index, spec in enumerate(workload_specs)])
        for label, config in schedulers.items()]


def run_series(lines: Sequence[Tuple[str, Sequence[SweepCase]]],
               obs=None, workers: int = 0,
               verify: bool = False) -> List[Series]:
    """One :class:`Series` per ``(label, cases)`` line, measured by one
    :func:`repro.sweep.runner.run_cases` call: in order in-process with
    ``workers=0``, over worker processes otherwise, with identical
    points.  ``obs`` is a recording attached to every case's simulator
    (``workers=0`` only); ``verify`` checks every case's invariants.  A
    failed case raises :class:`ReproError` naming it.
    """
    cases = [case for _, line in lines for case in line]
    outcome = run_cases(cases, options=RunnerOptions(workers=workers,
                                                     verify=verify),
                        recording=obs)
    result = []
    for label, line in lines:
        points = []
        for case in line:
            record = outcome.records[case.key()]
            if record is None or record["status"] != "ok":
                error = record["error"] if record else "never ran"
                raise ReproError(f"{label} point {case.describe()} "
                                 f"failed: {error}")
            points.append(BenchPoint(**record["point"]))
        result.append(Series(label, points))
    return result
