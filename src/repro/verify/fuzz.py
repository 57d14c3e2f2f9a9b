"""Property-based simulation fuzzing.

``python -m repro.verify fuzz --seeds N`` generates N random
topology × workload × scheduler combinations and checks three
properties on each, with the invariant checker attached throughout:

* **no violations or crashes** — a clean run stays clean, and any
  exception a run raises is a ``crash``;
* **same-seed determinism** — a rerun that records without memory
  events (the mode simbench and ``repro.bench`` run) produces the first
  run's JSONL event stream less its ``evict``/``invalidate`` lines, and
  the same counters;
* **reference differential** — every memory access charges the latency
  the naive :class:`~repro.verify.reference.ReferenceMemory` computes,
  and the run ends with the same counters, cache contents, DRAM and
  interconnect state (:func:`~repro.verify.reference.shadow` and
  :func:`~repro.verify.reference.compare`).

On failure the case is greedily shrunk — fewer objects, smaller caches,
shorter horizon, simpler scheduler — while the failure reproduces, and
the CLI prints a single ``python -m repro.verify run --case ...``
command that replays the minimal case.

Every case is a :class:`FuzzCase`: a flat, JSON-round-trippable record
of knobs over :meth:`repro.cpu.topology.MachineSpec.tiny` (the same
factory the test suite's ``tiny_spec`` uses) and
:class:`~repro.workloads.synthetic.ObjectOpsSpec`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from dataclasses import dataclass
from itertools import zip_longest
from typing import Any, Callable, Iterator, Optional, Tuple

from repro.core.coretime import CoreTimeConfig, CoreTimeScheduler
from repro.cpu.machine import Machine
from repro.cpu.topology import MachineSpec
from repro.errors import ConfigError, SimulationError
from repro.mem.counters import aggregate
from repro.obs import MEMORY_EVENTS, Observability, events_to_jsonl
from repro.sched import registry
from repro.sched.timeshare import TimeSharingScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.verify.faults import FaultPlan
from repro.verify.invariants import InvariantChecker, InvariantViolation
from repro.verify.reference import ReferenceMismatch, compare, shadow
from repro.workloads import scenarios as scenario_catalog
from repro.workloads.scenarios import ScenarioSpec
from repro.workloads.synthetic import ObjectOpsSpec, ObjectOpsWorkload

#: Historical scheduler spellings still accepted in saved repro commands.
_SCHEDULER_ALIASES = {"work_stealing": "work-stealing"}


def scheduler_axis() -> Tuple[str, ...]:
    """Scheduler names the case generator draws from: every registry
    entry marked fuzzable (config variants of an already-fuzzed
    scheduler opt out).  Registering a scheduler grows fuzz coverage
    automatically."""
    return registry.fuzzable_names()


def scenario_axis() -> Tuple[str, ...]:
    """Scenario names the case generator draws from (plus ``""`` for
    the raw ObjectOpsSpec knobs).  Registering a scenario in
    :mod:`repro.workloads.scenarios` grows fuzz coverage automatically."""
    return scenario_catalog.fuzzable_names()


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

@dataclass
class FuzzCase:
    """One fuzzed configuration (flat and JSON-serialisable)."""

    seed: int = 0
    # -- topology (overrides on MachineSpec.tiny) ----------------------
    n_chips: int = 2
    cores_per_chip: int = 2
    l1_bytes: int = 512
    l2_bytes: int = 2048
    l3_bytes: int = 8192
    migration_cost: int = 200
    poll_interval: int = 0
    hetero_cores: bool = False
    # -- scheduler -----------------------------------------------------
    scheduler: str = "coretime"
    packing: str = "first_fit"
    return_home: bool = True
    rebalance: bool = True
    monitor_interval: int = 30_000
    #: Service-cycle quantum applied to time-sharing schedulers (rr,
    #: cfs, sjf, mlfq); ignored by the rest.
    quantum: int = 2500
    # -- workload (ObjectOpsSpec) --------------------------------------
    n_objects: int = 4
    object_bytes: int = 512
    think_cycles: int = 50
    write_fraction: float = 0.0
    pair_probability: float = 0.0
    popularity: str = "uniform"
    with_locks: bool = True
    #: Threads per core (>1 fills run queues, exercising preemption).
    threads_per_core: int = 1
    # -- run -----------------------------------------------------------
    horizon: int = 80_000
    #: Registered scenario name; "" runs the raw ObjectOpsSpec knobs
    #: above.  Last field with a default so stored cases from before
    #: the scenario axis load unchanged (missing -> "").
    scenario: str = ""

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        data = json.loads(text)
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown FuzzCase fields {sorted(unknown)}")
        return cls(**data)

    def replace(self, **changes: Any) -> "FuzzCase":
        return dataclasses.replace(self, **changes)


def generate_case(seed: int) -> FuzzCase:
    """Deterministically derive one random case from ``seed``."""
    # Same root->case derivation repro-sweep and bench sweeps use.
    rng = random.Random(derive_seed(seed, "fuzz-case"))
    n_chips, cores_per_chip = rng.choice(
        ((1, 2), (1, 4), (2, 1), (2, 2), (2, 4), (4, 2)))
    scheduler = rng.choice(scheduler_axis())
    case = FuzzCase(
        seed=seed,
        n_chips=n_chips,
        cores_per_chip=cores_per_chip,
        l1_bytes=rng.choice((256, 512)),
        l2_bytes=rng.choice((1024, 2048)),
        l3_bytes=rng.choice((4096, 8192)),
        migration_cost=rng.choice((100, 200, 500)),
        poll_interval=rng.choice((0, 0, 250)),
        hetero_cores=rng.random() < 0.2,
        scheduler=scheduler,
        packing=rng.choice(("first_fit", "balanced", "hash")),
        return_home=rng.random() < 0.8,
        rebalance=rng.random() < 0.8,
        monitor_interval=rng.choice((20_000, 30_000, 50_000)),
        quantum=rng.choice((1_000, 2_500, 5_000)),
        n_objects=rng.choice((2, 4, 8)),
        object_bytes=rng.choice((256, 512, 1024)),
        think_cycles=rng.choice((0, 50, 100)),
        write_fraction=rng.choice((0.0, 0.2, 0.5)),
        pair_probability=rng.choice((0.0, 0.0, 0.3)),
        popularity=rng.choice(("uniform", "zipf")),
        with_locks=rng.random() < 0.7,
        threads_per_core=rng.choice((1, 1, 2)),
        horizon=rng.choice((60_000, 100_000, 150_000)),
    )
    # The scenario axis is drawn *after* the full case so every draw
    # above — and therefore every stored case and coverage pin from
    # before the axis existed — stays byte-identical.  Half the cases
    # keep the raw knobs; the rest run a registered scenario.
    names = scenario_axis()
    scenario = rng.choice(("",) * len(names) + names)
    # Drawn last for the same reason: a quarter of the cases scan
    # objects larger than L1 + L2, so scans evict lines they read.
    if rng.random() < 0.25:
        case = case.replace(object_bytes=4096)
    return case.replace(scenario=scenario)


# ---------------------------------------------------------------------------
# building and running a case
# ---------------------------------------------------------------------------

def build_machine(case: FuzzCase) -> Machine:
    speeds = None
    if case.hetero_cores:
        n_cores = case.n_chips * case.cores_per_chip
        speeds = tuple(2.0 if core % 2 else 1.0 for core in range(n_cores))
    spec = MachineSpec.tiny(
        n_chips=case.n_chips, cores_per_chip=case.cores_per_chip,
        l1_bytes=case.l1_bytes, l2_bytes=case.l2_bytes,
        l3_bytes=case.l3_bytes, migration_cost=case.migration_cost,
        poll_interval=case.poll_interval, core_speeds=speeds)
    return Machine(spec)


def build_scheduler(case: FuzzCase):
    name = _SCHEDULER_ALIASES.get(case.scheduler, case.scheduler)
    if name == "coretime":
        # The fuzzer owns CoreTime's config knobs (the registry factory
        # carries benchmark defaults instead).
        return CoreTimeScheduler(CoreTimeConfig(
            monitor_interval=case.monitor_interval,
            packing=case.packing,
            return_home=case.return_home,
            rebalance=case.rebalance))
    scheduler = registry.create(name)     # raises ConfigError if unknown
    if isinstance(scheduler, TimeSharingScheduler):
        scheduler.quantum = case.quantum
    return scheduler


def build_workload(machine: Machine, case: FuzzCase) -> ObjectOpsWorkload:
    """The case's workload: a registered scenario when ``case.scenario``
    names one, the raw ObjectOpsSpec knobs otherwise."""
    if case.scenario:
        return scenario_catalog.build(
            machine, ScenarioSpec(name=case.scenario, seed=case.seed))
    return ObjectOpsWorkload(machine, workload_spec(case))


def workload_spec(case: FuzzCase) -> ObjectOpsSpec:
    return ObjectOpsSpec(
        n_objects=case.n_objects, object_bytes=case.object_bytes,
        think_cycles=case.think_cycles,
        write_fraction=case.write_fraction,
        pair_probability=case.pair_probability,
        popularity=case.popularity, with_locks=case.with_locks,
        seed=case.seed, threads_per_core=case.threads_per_core)


def run_case(case: FuzzCase,
             checker: Optional[InvariantChecker] = None,
             faults: Optional[FaultPlan] = None,
             capture_memory: bool = True) -> Tuple[str, dict, Any]:
    """One full simulation of ``case``, recording memory events
    (evictions, invalidations) when ``capture_memory`` is set.

    A run without a fault plan is shadowed by the reference memory
    model and raises :class:`ReferenceMismatch` if any access or the end
    state disagrees with it; faults corrupt state behind the model's
    back, so injected runs are not shadowed.

    Returns ``(jsonl_stream, aggregated_counters, RunResult)``; raises
    whatever the simulator raises (crash dumps are routed to
    ``os.devnull`` — the caller owns the reporting), and
    :class:`SimulationError` if the event log dropped events, as a
    stream cut short cannot show that two runs agree.
    """
    machine = build_machine(case)
    if faults is None:
        shadow(machine.memory)
    scheduler = build_scheduler(case)
    obs = Observability(events=True, metrics=False, flight=256,
                        capture_memory=capture_memory,
                        flight_path=os.devnull)
    sim = Simulator(machine, scheduler, obs=obs,
                    checker=checker, faults=faults)
    workload = build_workload(machine, case)
    workload.spawn_all(sim)
    result = sim.run(until=case.horizon)
    if faults is None:
        compare(machine.memory)
    if obs.log.dropped:
        raise SimulationError(
            f"the event log dropped {obs.log.dropped} events")
    stream = events_to_jsonl(obs.events())
    return stream, aggregate(machine.memory.counters), result


# ---------------------------------------------------------------------------
# the property checks
# ---------------------------------------------------------------------------

@dataclass
class FuzzFailure:
    """Why a case failed; ``kind`` is one of ``invariant`` / ``crash`` /
    ``determinism`` / ``differential`` / ``not_applicable``."""

    kind: str
    detail: str
    rule: Optional[str] = None

    def __str__(self) -> str:
        tag = f"{self.kind}:{self.rule}" if self.rule else self.kind
        return f"[{tag}] {self.detail}"


#: The JSONL fragments that mark a memory event's line.
_MEMORY_KINDS = tuple(f'"kind":"{event.kind}"' for event in MEMORY_EVENTS)


def _without_memory_events(stream: str) -> str:
    """``stream`` less the lines of memory events."""
    return "\n".join(line for line in stream.splitlines()
                     if not any(kind in line for kind in _MEMORY_KINDS))


def _first_diff(a: str, b: str) -> str:
    """Where two unequal streams first differ: the first line they do not
    share (None past the end of the shorter), else their tails."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for index, (line_a, line_b) in enumerate(zip_longest(lines_a, lines_b)):
        if line_a != line_b:
            return (f"first divergence at line {index} (of {len(lines_a)} "
                    f"vs {len(lines_b)}): {line_a and line_a[:120]!r} != "
                    f"{line_b and line_b[:120]!r}")
    at = len(os.path.commonprefix([a, b]))
    return (f"every line agrees; the streams differ from character {at}: "
            f"{a[at:at + 120]!r} != {b[at:at + 120]!r}")


def check_case(case: FuzzCase,
               inject: Optional[str] = None) -> Optional[FuzzFailure]:
    """Run every property on ``case``; None means it passed.

    With ``inject`` set, a fault of that kind is injected and the
    *expected* outcome is an ``invariant`` failure (returned so the
    caller can shrink and print a repro); a run that survives the
    injection is reported as ``not_applicable`` (the fault never found a
    target) — the checker-blind-spot case is covered by the mutation
    self-test, which controls applicability.
    """
    faults = (FaultPlan.single(inject, at_event=100, seed=case.seed)
              if inject else None)
    # interval=1 under injection: the checker must observe the broken
    # state before the simulator heals it (e.g. reloading an evicted
    # line re-adds the directory entry the fault orphaned).
    interval = 1 if inject else 128
    try:
        stream_a, counters_a, _ = run_case(
            case, checker=InvariantChecker(interval=interval),
            faults=faults)
    except InvariantViolation as exc:
        return FuzzFailure("invariant", str(exc), rule=exc.rule)
    except ReferenceMismatch as exc:
        return FuzzFailure("differential", str(exc))
    except Exception as exc:
        return FuzzFailure("crash", f"{type(exc).__name__}: {exc}")
    if inject is not None:
        return FuzzFailure(
            "not_applicable",
            f"fault {inject!r} "
            + ("was injected but tripped nothing"
               if faults.injected else "never found a target"))
    # The rerun publishes no memory events, so the memory system runs
    # its other mode: the one simbench and repro.bench run.
    try:
        stream_b, counters_b, _ = run_case(
            case, checker=InvariantChecker(interval=interval),
            capture_memory=False)
    except ReferenceMismatch as exc:
        return FuzzFailure("differential", f"rerun: {exc}")
    except Exception as exc:
        return FuzzFailure("crash",
                           f"rerun: {type(exc).__name__}: {exc}")
    stream_a = _without_memory_events(stream_a)
    if stream_a != stream_b:
        return FuzzFailure("determinism",
                           "same-seed reruns diverged — "
                           + _first_diff(stream_a, stream_b))
    if counters_a != counters_b:
        differ = [name for name in counters_a
                  if counters_a[name] != counters_b[name]]
        return FuzzFailure("determinism",
                           f"same-seed reruns counted {differ} differently")
    return None


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

def _shrink_candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """Progressively simpler variants, most aggressive first."""
    if case.horizon > 20_000:
        yield case.replace(horizon=max(20_000, case.horizon // 2))
    if case.scenario:
        # Dropping the scenario falls back to the raw workload knobs —
        # a much simpler case when the failure isn't scenario-specific.
        yield case.replace(scenario="")
    if case.n_objects > 1:
        yield case.replace(n_objects=max(1, case.n_objects // 2))
    if case.n_chips > 1:
        yield case.replace(n_chips=case.n_chips // 2)
    if case.cores_per_chip > 1:
        yield case.replace(cores_per_chip=case.cores_per_chip // 2)
    if case.object_bytes > 64:
        yield case.replace(object_bytes=max(64, case.object_bytes // 2))
    if case.scheduler != "thread":
        yield case.replace(scheduler="thread")
    if case.threads_per_core > 1:
        yield case.replace(threads_per_core=1)
    if case.write_fraction:
        yield case.replace(write_fraction=0.0)
    if case.pair_probability:
        yield case.replace(pair_probability=0.0)
    if case.with_locks:
        yield case.replace(with_locks=False)
    if case.think_cycles:
        yield case.replace(think_cycles=0)
    if case.popularity != "uniform":
        yield case.replace(popularity="uniform")
    if case.hetero_cores:
        yield case.replace(hetero_cores=False)
    if case.poll_interval:
        yield case.replace(poll_interval=0)
    if case.scheduler == "coretime":
        if case.rebalance:
            yield case.replace(rebalance=False)
        if case.packing != "first_fit":
            yield case.replace(packing="first_fit")


def shrink(case: FuzzCase, still_fails: Callable[[FuzzCase], bool],
           max_attempts: int = 48) -> FuzzCase:
    """Greedy shrink: adopt any simpler variant that still fails."""
    current = case
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _shrink_candidates(current):
            attempts += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
            if attempts >= max_attempts:
                break
    return current


def repro_command(case: FuzzCase, inject: Optional[str] = None) -> str:
    """The one-liner that replays ``case`` from a fresh checkout."""
    command = ("PYTHONPATH=src python -m repro.verify run "
               f"--case '{case.to_json()}'")
    if inject:
        command += f" --inject {inject}"
    return command


# ---------------------------------------------------------------------------
# mutation self-test
# ---------------------------------------------------------------------------

def run_mutation(kind: str, seed: int = 11) -> InvariantViolation:
    """Inject one fault of ``kind`` into a migration-heavy simulation
    and return the :class:`InvariantViolation` it provoked.

    Raises :class:`~repro.errors.SimulationError` if the fault passed
    silently — the checker has a blind spot — or never applied.  Used by
    ``python -m repro.verify selftest`` and
    ``tests/test_verify_faults.py``; the expected rule per kind is
    :data:`repro.verify.faults.EXPECTED_RULE`.
    """
    machine = Machine(MachineSpec.tiny())
    scheduler = CoreTimeScheduler(CoreTimeConfig(monitor_interval=25_000))
    obs = Observability(events=True, metrics=False, flight=128,
                        flight_path=os.devnull)
    checker = InvariantChecker(interval=1)
    faults = FaultPlan.single(kind, at_event=60, seed=seed)
    sim = Simulator(machine, scheduler, obs=obs,
                    checker=checker, faults=faults)
    workload = ObjectOpsWorkload(machine, ObjectOpsSpec(
        n_objects=4, object_bytes=512, think_cycles=0, seed=seed))
    # Pre-assign objects round-robin so ct_start redirects cross-core
    # and migrations are continuously in flight (drop/delay targets).
    # Each assignment is charged to its core's budget, as the runtime's
    # own packing does, so the object_table rule stays quiet.
    for index, obj in enumerate(workload.objects):
        core_id = index % machine.n_cores
        scheduler.table.assign(obj, core_id)
        scheduler.budgets[core_id].charge(
            obj.footprint_bytes(machine.spec.line_size))
    workload.spawn_all(sim)
    try:
        sim.run(until=400_000)
    except InvariantViolation as exc:
        return exc
    raise SimulationError(
        f"fault {kind!r} "
        + (f"({faults.injected[0][2]}) tripped no invariant — the "
           f"checker has a blind spot"
           if faults.injected else "never found a target to corrupt"))
