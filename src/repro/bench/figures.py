"""Experiment definitions: every figure and ablation in DESIGN.md §4.

Each ``figure_*`` / ``ablation_*`` function runs one experiment end to end
and returns a :class:`FigureResult` (data series + formatted report).
Benchmarks and the CLI call these with different effort profiles:
``profile="quick"`` keeps pytest-benchmark runs short; ``profile="full"``
uses more points and longer windows for the committed EXPERIMENTS.md
numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.harness import Series, run_point, sweep
from repro.bench.report import figure_report
from repro.core.object_table import CtObject
from repro.core.packing import make_budgets, pack
from repro.cpu.machine import Machine
from repro.cpu.topology import MachineSpec
from repro.errors import ConfigError
from repro.mem.inspect import residency_table
from repro.sched import registry
from repro.sched.registry import coretime_factory
from repro.sim.engine import Simulator
from repro.workloads.dirlookup import DirectoryLookupWorkload, DirWorkloadSpec
from repro.workloads.synthetic import ObjectOpsSpec, ObjectOpsWorkload

#: Scale factor all benchmark machines use (capacities and the workload
#: shrink together; see DESIGN.md §2).
BENCH_SCALE = 8


@dataclass
class FigureResult:
    """Output of one experiment."""

    name: str
    series: List[Series]
    report: str
    details: Dict = field(default_factory=dict)

    def series_by_label(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"{self.name}: no series {label!r}")


@dataclass(frozen=True)
class Profile:
    """Effort level of an experiment run."""

    n_dirs_list: Sequence[int]
    warmup_cycles: int
    measure_cycles: int


PROFILES: Dict[str, Profile] = {
    "quick": Profile((16, 64, 160, 320, 512),
                     warmup_cycles=1_500_000, measure_cycles=1_500_000),
    "full": Profile((2, 4, 8, 16, 32, 64, 96, 128, 192, 256, 320, 384,
                     448, 512, 576, 640),
                    warmup_cycles=2_000_000, measure_cycles=3_000_000),
}


def _profile(profile) -> Profile:
    if isinstance(profile, Profile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise ConfigError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        ) from None


# ---------------------------------------------------------------------------
# E1 — Figure 4(a): uniform directory popularity
# ---------------------------------------------------------------------------

def figure_4a(profile="quick", scale: int = BENCH_SCALE,
              seed: Optional[int] = None, obs=None,
              workers: int = 0) -> FigureResult:
    """Resolutions/s vs total data size, uniform popularity (Figure 4a)."""
    prof = _profile(profile)
    machine_spec = MachineSpec.scaled(scale)
    workload_specs = [DirWorkloadSpec.scaled(scale, n_dirs=n)
                      for n in prof.n_dirs_list]
    xs = [spec.total_data_bytes / 1024 for spec in workload_specs]
    series = sweep(machine_spec, ("thread", "coretime"), workload_specs,
                   warmup_cycles=prof.warmup_cycles,
                   measure_cycles=prof.measure_cycles, xs=xs,
                   seed=seed, obs=obs, workers=workers)
    report = figure_report(
        "Figure 4(a): file system benchmark, uniform directory popularity",
        series, x_label="total data size (KB, scaled machine)",
        y_label="1000s of resolutions per second",
        notes=("Paper shape: both low at the left edge (lock waits), both "
               "fast while a copy fits each chip's caches, CoreTime 2-3x "
               "faster once the data exceeds them."))
    return FigureResult("fig4a", series, report)


# ---------------------------------------------------------------------------
# E2 — Figure 4(b): oscillating directory popularity
# ---------------------------------------------------------------------------

def figure_4b(profile="quick", scale: int = BENCH_SCALE,
              rotate: bool = True, seed: Optional[int] = None,
              obs=None, workers: int = 0) -> FigureResult:
    """Resolutions/s vs data size, oscillating active set (Figure 4b)."""
    prof = _profile(profile)
    machine_spec = MachineSpec.scaled(scale)
    workload_specs = [
        DirWorkloadSpec.scaled(
            scale, n_dirs=n, popularity="oscillating",
            oscillation_period=1_000_000, oscillation_rotate=rotate)
        for n in prof.n_dirs_list
    ]
    xs = [spec.total_data_bytes / 1024 for spec in workload_specs]
    series = sweep(machine_spec, ("thread", "coretime"), workload_specs,
                   warmup_cycles=prof.warmup_cycles,
                   measure_cycles=prof.measure_cycles, xs=xs,
                   seed=seed, obs=obs, workers=workers)
    report = figure_report(
        "Figure 4(b): file system benchmark, oscillated directory "
        "popularity",
        series, x_label="total data size (KB, scaled machine)",
        y_label="1000s of resolutions per second",
        notes=("Paper: CoreTime rebalances directories across caches and "
               "performs more than twice as fast for most data sizes."))
    return FigureResult("fig4b", series, report)


# ---------------------------------------------------------------------------
# E3 — Figure 2: cache contents under the two schedulers
# ---------------------------------------------------------------------------

def figure_2(n_dirs: int = 20, run_cycles: int = 3_000_000,
             seed: Optional[int] = None, obs=None) -> FigureResult:
    """Snapshot of per-cache directory residency (Figure 2).

    Uses a single-chip, four-core machine sized so that a core's private
    caches hold about three directories and the shared L3 about eight —
    the geometry of the paper's figure.
    """
    spec = MachineSpec(
        name="fig2-4core", n_chips=1, cores_per_chip=4,
        l1_bytes=2048, l2_bytes=12 * 1024, l3_bytes=32 * 1024,
        migration_cost=250)
    lines: List[str] = ["Figure 2: cache contents, directory lookup "
                        f"workload, {n_dirs} directories", ""]
    details: Dict[str, Dict] = {}
    for label, factory in (
            ("thread scheduler", registry.resolve("thread")),
            ("O2 scheduler (CoreTime)",
             coretime_factory(monitor_interval=50_000))):
        machine = Machine(spec)
        simulator = Simulator(machine, factory(), obs=obs)
        workload_spec = DirWorkloadSpec(
            n_dirs=n_dirs, files_per_dir=128, cluster_bytes=512,
            think_cycles=12, threads_per_core=4,
            seed=42 if seed is None else seed)
        workload = DirectoryLookupWorkload(machine, workload_spec)
        workload.spawn_all(simulator)
        simulator.run(until=run_cycles)
        regions = [(d.name.replace("dir:DIR", "dir"),
                    d.object.addr, d.object.size)
                   for d in workload.efsl.directories]
        residency = residency_table(machine.memory, regions)
        details[label] = residency
        lines.append(f"--- {label}")
        for location in sorted(residency):
            names = " ".join(residency[location])
            lines.append(f"  {location:<10} {names}")
        on_chip = sum(len(v) for k, v in residency.items()
                      if k != "off-chip")
        lines.append(f"  => {on_chip}/{n_dirs} directories resident "
                     "on-chip")
        lines.append("")
    report = "\n".join(lines)
    return FigureResult("fig2", [], report, details=details)


# ---------------------------------------------------------------------------
# E4 — packing algorithm complexity (Θ(n log n) claim)
# ---------------------------------------------------------------------------

def packing_complexity(ns: Sequence[int] = (1000, 2000, 4000, 8000, 16000),
                       repeats: int = 3) -> FigureResult:
    """Wall-clock scaling of the greedy first-fit cache packing."""
    rows = []
    timings: List[float] = []
    for n in ns:
        objects = []
        for index in range(n):
            obj = CtObject(f"o{index}", index * 4096, 2048 + (index % 7) * 512)
            obj.heat = float((index * 2654435761) % 1000)
            objects.append(obj)
        best = float("inf")
        for _ in range(repeats):
            budgets = make_budgets(1 << 20, 16)
            start = time.perf_counter()
            pack(objects, budgets)
            best = min(best, time.perf_counter() - start)
        timings.append(best)
        rows.append(f"  n={n:>7}  {best * 1e3:8.2f} ms"
                    f"  {best / n * 1e6:6.2f} us/object")
    # Θ(n log n): time per object should grow no faster than log n.
    report = "\n".join(
        ["E4: greedy first-fit cache packing runtime (paper: Θ(n log n))"]
        + rows)
    return FigureResult("packing_complexity", [], report,
                        details={"ns": list(ns), "seconds": timings})


# ---------------------------------------------------------------------------
# E5 — migration cost sensitivity
# ---------------------------------------------------------------------------

def migration_cost_sweep(costs: Sequence[int] = (0, 125, 250, 500, 1000,
                                                 2000, 4000),
                         n_dirs: int = 320,
                         scale: int = BENCH_SCALE,
                         warmup_cycles: int = 1_500_000,
                         measure_cycles: int = 1_500_000,
                         seed: Optional[int] = None, obs=None) \
        -> FigureResult:
    """CoreTime throughput as the migration cost varies (§5 measured 2000
    cycles on real hardware; §6.1 expects active messages to cut it)."""
    workload_spec = DirWorkloadSpec.scaled(scale, n_dirs=n_dirs)
    points = []
    for cost in costs:
        machine_spec = MachineSpec.scaled(scale, migration_cost=cost)
        points.append(run_point(
            machine_spec, registry.resolve("coretime"), workload_spec,
            warmup_cycles=warmup_cycles, measure_cycles=measure_cycles,
            x=cost, seed=seed, obs=obs))
    baseline = run_point(MachineSpec.scaled(scale),
                         registry.resolve("thread"), workload_spec,
                         warmup_cycles=warmup_cycles,
                         measure_cycles=measure_cycles, x=0,
                         seed=seed, obs=obs)
    series = [Series("coretime", points),
              Series("thread (any cost)", [baseline] * len(points))]
    report = figure_report(
        "E5: CoreTime throughput vs migration cost "
        f"({n_dirs} dirs, {workload_spec.total_data_bytes // 1024} KB)",
        series, x_label="migration cost (cycles)",
        y_label="1000s of resolutions per second",
        notes=("O2 scheduling pays off while migration is cheaper than "
               "fetching the object (§4); the crossover is where the "
               "curves meet."))
    return FigureResult("migration_cost", series, report)


# ---------------------------------------------------------------------------
# E6 — thread clustering does not help this workload (§2 claim)
# ---------------------------------------------------------------------------

def clustering_comparison(n_dirs_list: Sequence[int] = (64, 160, 320),
                          scale: int = BENCH_SCALE,
                          warmup_cycles: int = 1_500_000,
                          measure_cycles: int = 1_500_000,
                          seed: Optional[int] = None, obs=None) \
        -> FigureResult:
    """Thread clustering vs plain threads vs CoreTime (§2: "Thread
    clustering will not improve performance since all threads look up
    files in the same directories")."""
    machine_spec = MachineSpec.scaled(scale)
    workload_specs = [DirWorkloadSpec.scaled(scale, n_dirs=n)
                      for n in n_dirs_list]
    xs = [spec.total_data_bytes / 1024 for spec in workload_specs]
    series = sweep(machine_spec,
                   ("thread", "thread-clustering", "coretime"),
                   workload_specs, warmup_cycles=warmup_cycles,
                   measure_cycles=measure_cycles, xs=xs,
                   seed=seed, obs=obs)
    report = figure_report(
        "E6: thread clustering vs O2 scheduling",
        series, x_label="total data size (KB)",
        y_label="1000s of resolutions per second",
        notes=("All threads share every directory, so clustering "
               "degenerates to ordinary placement while CoreTime "
               "partitions the data."))
    return FigureResult("clustering", series, report)


# ---------------------------------------------------------------------------
# E7 — future multicores (§6.1)
# ---------------------------------------------------------------------------

def future_multicore(n_dirs_list: Sequence[int] = (64, 160, 320, 512),
                     warmup_cycles: int = 1_500_000,
                     measure_cycles: int = 1_500_000,
                     seed: Optional[int] = None, obs=None) -> FigureResult:
    """CoreTime's advantage on today's machine vs a §6.1 future machine
    (scarcer off-chip bandwidth, bigger caches, cheap active-message
    migration)."""
    today = MachineSpec.scaled(BENCH_SCALE)
    future = MachineSpec.future(n_chips=4, cores_per_chip=4,
                                l2_bytes=128 * 1024, l3_bytes=1024 * 1024,
                                migration_cost=60)
    rows = []
    details = {}
    for label, machine_spec in (("today", today), ("future", future)):
        specs = [DirWorkloadSpec.scaled(BENCH_SCALE, n_dirs=n)
                 for n in n_dirs_list]
        xs = [spec.total_data_bytes / 1024 for spec in specs]
        pair = sweep(machine_spec, ("thread", "coretime"), specs,
                     warmup_cycles=warmup_cycles,
                     measure_cycles=measure_cycles, xs=xs,
                     seed=seed, obs=obs)
        ratios = [c.kops_per_sec / max(1.0, t.kops_per_sec)
                  for t, c in zip(pair[0].points, pair[1].points)]
        details[label] = {"series": pair, "ratios": ratios}
        rows.append(f"  {label:<8} speedups: " + "  ".join(
            f"{x:,.0f}KB:{r:.2f}x" for x, r in zip(xs, ratios)))
    report = "\n".join(
        ["E7: CoreTime speedup over thread scheduling, today's machine vs "
         "a future multicore (bigger caches, scarcer DRAM bandwidth, "
         "cheap migration)"] + rows +
        ["", "Paper §6.1: these trends should make O2 scheduling "
             "attractive for more workloads."])
    all_series = details["today"]["series"] + details["future"]["series"]
    return FigureResult("future", all_series, report, details=details)


# ---------------------------------------------------------------------------
# E8 — replication of read-only objects (§6.2)
# ---------------------------------------------------------------------------

def replication_ablation(n_objects_list: Sequence[int] = (96, 448),
                         scale: int = BENCH_SCALE,
                         warmup_cycles: int = 1_500_000,
                         measure_cycles: int = 1_500_000,
                         seed: Optional[int] = None, obs=None) \
        -> FigureResult:
    """Zipf-skewed read-only objects: replicate the hot ones or not.

    The objects are lock-free (readers need no mutual exclusion — a
    replicated object guarded by one global lock would serialise anyway).
    With few objects, replicas are free capacity-wise and shorten
    migrations; with many objects, every replica displaces a distinct
    object from the caches — the §6.2 trade-off.
    """
    machine_spec = MachineSpec.scaled(scale)
    workload_specs = [
        ObjectOpsSpec(n_objects=n, object_bytes=4096, popularity="zipf",
                      zipf_s=1.1, think_cycles=12, with_locks=False)
        for n in n_objects_list
    ]
    schedulers = {
        "coretime": coretime_factory(),
        "coretime+replication": coretime_factory(
            replicate_read_only=True, replication_heat_factor=2.0),
    }
    def factory(machine, spec):
        return ObjectOpsWorkload(machine, spec)
    series = sweep(machine_spec, tuple(schedulers), workload_specs,
                   warmup_cycles=warmup_cycles,
                   measure_cycles=measure_cycles,
                   xs=list(n_objects_list),
                   workload_factory=factory, schedulers=schedulers,
                   seed=seed, obs=obs)
    # Label the series by configuration, not by the shared runtime name.
    for label, s in zip(schedulers, series):
        s.label = label
    report = figure_report(
        "E8: replicating hot read-only objects (Zipf popularity)",
        series, x_label="objects", y_label="1000s of ops per second",
        notes=("§6.2: sometimes it is better to replicate read-only "
               "objects, other times to schedule more distinct objects."))
    return FigureResult("replication", series, report)


# ---------------------------------------------------------------------------
# E9 — replacement policy for working sets > on-chip memory (§6.2)
# ---------------------------------------------------------------------------

def replacement_ablation(n_dirs: int = 1024, scale: int = BENCH_SCALE,
                         warmup_cycles: int = 2_000_000,
                         measure_cycles: int = 4_000_000,
                         seed: Optional[int] = None, obs=None) \
        -> FigureResult:
    """Working set far beyond on-chip capacity with a *shifting* hot set:
    keep the currently-frequent objects on-chip (LFU) or leave the table
    frozen at whatever was packed first.

    A static skew is not enough to separate the policies — heat-ordered
    first-fit already favours hot objects at assignment time.  The LFU
    policy earns its keep when popularity moves and stale assignments
    must be evicted for the new hot set.
    """
    machine_spec = MachineSpec.scaled(scale)
    workload_spec = DirWorkloadSpec.scaled(
        scale, n_dirs=n_dirs, popularity="oscillating",
        oscillation_period=800_000, oscillation_rotate=True)
    schedulers = {
        "thread": registry.resolve("thread"),
        "coretime-firstfit": coretime_factory(),
        "coretime+lfu": coretime_factory(lfu_replacement=True,
                                         lfu_margin=1.5),
    }
    series = sweep(machine_spec, tuple(schedulers), [workload_spec],
                   warmup_cycles=warmup_cycles,
                   measure_cycles=measure_cycles,
                   xs=[workload_spec.total_data_bytes / 1024],
                   schedulers=schedulers, seed=seed, obs=obs)
    for label, s in zip(schedulers, series):
        s.label = label
    report = figure_report(
        f"E9: replacement policy, {n_dirs} Zipf directories "
        f"({workload_spec.total_data_bytes // 1024} KB, beyond on-chip)",
        series, x_label="total data size (KB)",
        y_label="1000s of resolutions per second",
        notes=("§6.2: with working sets larger than on-chip memory, an O2 "
               "scheduler should keep the most frequently accessed "
               "objects on-chip."))
    return FigureResult("replacement", series, report)


# ---------------------------------------------------------------------------
# E10 — object clustering (§6.2)
# ---------------------------------------------------------------------------

def object_clustering_ablation(n_objects: int = 64,
                               scale: int = BENCH_SCALE,
                               warmup_cycles: int = 1_500_000,
                               measure_cycles: int = 1_500_000,
                               seed: Optional[int] = None, obs=None) \
        -> FigureResult:
    """Operations that touch an object then its partner: co-locating the
    pair saves one migration round trip per paired operation."""
    machine_spec = MachineSpec.scaled(scale)
    base = ObjectOpsSpec(n_objects=n_objects, object_bytes=4096,
                         pair_probability=0.8, think_cycles=12)
    # Balanced packing spreads objects evenly (heat-ordered first-fit
    # would co-locate similarly-hot pairs by accident), and threads stay
    # where an operation leaves them (with return-home, the round trip
    # happens whether or not the partner is co-located, hiding the
    # effect being measured).
    schedulers = {
        "coretime": coretime_factory(packing="balanced",
                                     return_home=False),
        "coretime+autocluster": coretime_factory(
            packing="balanced", return_home=False, auto_cluster=True,
            auto_cluster_threshold=16),
    }
    def plain_factory(machine, spec):
        workload = ObjectOpsWorkload(machine, spec)
        for obj in workload.objects:
            obj.cluster_key = None     # learning must do the work
        return workload
    def declared_factory(machine, spec):
        return ObjectOpsWorkload(machine, spec)   # keeps pair-N keys
    series_plain = sweep(machine_spec, ("coretime",), [base],
                         warmup_cycles=warmup_cycles,
                         measure_cycles=measure_cycles, xs=[n_objects],
                         workload_factory=plain_factory,
                         schedulers=schedulers, seed=seed, obs=obs)
    series_auto = sweep(machine_spec, ("coretime+autocluster",), [base],
                        warmup_cycles=warmup_cycles,
                        measure_cycles=measure_cycles, xs=[n_objects],
                        workload_factory=plain_factory,
                        schedulers=schedulers, seed=seed, obs=obs)
    series_declared = sweep(machine_spec, ("coretime",), [base],
                            warmup_cycles=warmup_cycles,
                            measure_cycles=measure_cycles, xs=[n_objects],
                            workload_factory=declared_factory,
                            schedulers=schedulers, seed=seed, obs=obs)
    series = [series_plain[0], series_auto[0], series_declared[0]]
    series[0].label = "no clustering"
    series[1].label = "learned clusters"
    series[2].label = "declared clusters"
    rows = ["", "traffic (the quantity clustering reduces — §1 warns "
                "about interconnect saturation):"]
    for s in series:
        point = s.points[0]
        rows.append(
            f"  {s.label:<18} {point.migrations / max(1, point.ops):5.2f} "
            f"migrations/op, {point.cross_chip_messages:>8,} cross-chip "
            "messages")
    report = figure_report(
        "E10: object clustering for paired operations",
        series, x_label="objects", y_label="1000s of ops per second",
        notes="\n".join(rows + [
            "", "§6.2: objects used together belong in the same cache; "
            "clusters can be declared by the programmer or learned from "
            "the operation stream.  Throughput is saturated here, so the "
            "win appears as halved migration traffic."]))
    return FigureResult("object_clustering", series, report)


# ---------------------------------------------------------------------------
# E11 — packing-policy ablation (design choice from §4)
# ---------------------------------------------------------------------------

def packing_policy_ablation(n_dirs: int = 320, scale: int = BENCH_SCALE,
                            warmup_cycles: int = 1_500_000,
                            measure_cycles: int = 1_500_000,
                            seed: Optional[int] = None, obs=None) \
        -> FigureResult:
    """First-fit (the paper's choice) vs alternatives.

    The paper picks greedy first-fit and relies on the rebalancer to fix
    its hot spots.  This ablation compares it against balanced (emptiest
    budget first) and popularity-blind hash placement, with and without
    the rebalancer, quantifying how much of first-fit's viability is
    owed to rebalancing.
    """
    machine_spec = MachineSpec.scaled(scale)
    workload_spec = DirWorkloadSpec.scaled(scale, n_dirs=n_dirs)
    schedulers = {
        "first-fit": coretime_factory(packing="first_fit"),
        "first-fit-norebalance": coretime_factory(
            packing="first_fit", rebalance=False),
        "balanced": coretime_factory(packing="balanced"),
        "hash": coretime_factory(packing="hash"),
    }
    series = sweep(machine_spec, tuple(schedulers), [workload_spec],
                   warmup_cycles=warmup_cycles,
                   measure_cycles=measure_cycles,
                   xs=[workload_spec.total_data_bytes / 1024],
                   schedulers=schedulers, seed=seed, obs=obs)
    for label, s in zip(schedulers, series):
        s.label = label
    report = figure_report(
        f"E11: packing policy ablation ({n_dirs} dirs, "
        f"{workload_spec.total_data_bytes // 1024} KB)",
        series, x_label="total data size (KB)",
        y_label="1000s of resolutions per second",
        notes=("§4 chooses greedy first-fit and repairs its pathologies "
               "at runtime; the no-rebalance column shows how much of "
               "the repair the rebalancer does."))
    return FigureResult("packing_policy", series, report)


# ---------------------------------------------------------------------------
# named workload scenarios (repro.workloads.scenarios)
# ---------------------------------------------------------------------------

def run_scenario(name: str, seed: Optional[int] = None,
                 schedulers: Sequence[str] = ("thread", "coretime"),
                 warmup_cycles: int = 120_000,
                 measure_cycles: int = 200_000, obs=None) -> FigureResult:
    """One registered scenario, thread vs CoreTime on the tiny machine.

    The quick interactive view of a scenario (``python -m repro.bench
    scenario --scenario NAME``); the full cross-scheduler matrix is the
    ``scenarios`` sweep preset.
    """
    from repro.workloads import scenarios as catalog
    from repro.workloads.scenarios import ScenarioSpec
    item = catalog.resolve(name)
    spec = ScenarioSpec(name=name)
    machine_spec = MachineSpec.tiny()
    series = []
    for scheduler in schedulers:
        point = run_point(
            machine_spec, registry.resolve(scheduler), spec,
            warmup_cycles=warmup_cycles, measure_cycles=measure_cycles,
            workload_factory=catalog.build, seed=seed, obs=obs)
        series.append(Series(scheduler, [point]))
    ops = catalog.compile_spec(spec)
    report = figure_report(
        f"scenario {name} [{item.stress}]: {item.summary}",
        series, x_label="footprint (KB)",
        y_label="1000s of operations per second",
        notes=(f"seed-deterministic scenario from "
               f"repro.workloads.scenarios ({ops.total_bytes // 1024} KB "
               f"over {ops.n_objects} objects on MachineSpec.tiny()); "
               f"run the 'scenarios' sweep preset for the full "
               f"scheduler matrix."))
    return FigureResult(f"scenario-{name}", series, report)


#: Experiment registry for the CLI.
EXPERIMENTS: Dict[str, Callable[..., FigureResult]] = {
    "fig4a": figure_4a,
    "fig4b": figure_4b,
    "fig2": figure_2,
    "packing": packing_complexity,
    "migration": migration_cost_sweep,
    "clustering": clustering_comparison,
    "future": future_multicore,
    "replication": replication_ablation,
    "replacement": replacement_ablation,
    "objclustering": object_clustering_ablation,
    "packingpolicy": packing_policy_ablation,
}
