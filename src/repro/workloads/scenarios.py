"""Named adversarial workload scenarios.

The paper's four workload shapes (dirlookup, webserver, synthetic,
trace) exercise steady-state regimes; real contended servers are
nastier.  This module is a scenario catalog in the spirit of the XNU
Clutch simulator's named scenarios — ``zipf_kv``, ``pipeline``,
``rcu_read_mostly``, ``diurnal_burst``, ``phase_shift``, ``cpu_storm``
— translated to the O2 world, each engineered to stress a specific
part of the runtime (cache pressure, coherence traffic, the monitor's
load assessment, the rebalancer's reaction time).

A scenario is a *seed-deterministic generator* that compiles down to
the existing :class:`~repro.workloads.synthetic.ObjectOpsSpec` /
:class:`~repro.workloads.synthetic.ObjectOpsWorkload` machinery:
:func:`compile_spec` returns the underlying ``ObjectOpsSpec`` and
:func:`build` returns a ready-to-spawn workload.  Some scenarios attach
a custom popularity process or override the per-thread program, but
every memory access still flows through the same engine/memory paths,
so the fuzzer's reference differential and the invariant checker apply
to every scenario unchanged.

The registry has the same shape as :mod:`repro.sched.registry` —
``register`` / ``resolve`` / ``names`` / ``fuzzable_names`` over frozen
:class:`ScenarioEntry` metadata, built-ins populated lazily on first
lookup (user registrations are never displaced).  Everything that
resolves a scenario by name — ``repro-sweep`` (workload kind
``"scenario"`` and the ``scenarios`` preset), ``bench --scenario``,
the verify fuzzer's scenario axis — goes through it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.rng import make_rng
from repro.threads.program import (Acquire, Compute, CtEnd, CtStart,
                                   Release, Scan, Store)
from repro.workloads.popularity import OscillatingPopularity
from repro.workloads.synthetic import ObjectOpsSpec, ObjectOpsWorkload


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario instantiation: a registry name plus scale knobs.

    This is the JSON-round-trippable workload spec sweep cells carry
    (workload kind ``"scenario"``).  Everything the run needs beyond
    these knobs is owned by the registered generator, so two hosts
    expanding the same spec build byte-identical workloads.
    """

    name: str = "zipf_kv"
    seed: int = 7
    #: Multiplier on the scenario's native object count (presets run at
    #: 1.0; raise it to push footprints further past the caches).
    scale: float = 1.0
    #: Override the scenario's native threads-per-core (0 = native).
    threads_per_core: int = 0

    def validate(self) -> None:
        resolve(self.name)  # unknown names raise, listing the registry
        if self.scale <= 0:
            raise ConfigError("scenario scale must be > 0")
        if self.threads_per_core < 0:
            raise ConfigError(
                "scenario threads_per_core must be >= 0 (0 = native)")

    def replace(self, **changes: object) -> "ScenarioSpec":
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    @property
    def total_data_bytes(self) -> int:
        """Footprint of the compiled object set (bench x coordinate)."""
        return compile_spec(self).total_bytes


CompileFn = Callable[[ScenarioSpec], ObjectOpsSpec]
BuildFn = Callable[["object", ScenarioSpec], ObjectOpsWorkload]


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario: its generator plus report metadata."""

    name: str
    compile: CompileFn
    summary: str = ""
    #: The runtime axis the scenario is engineered to stress
    #: ("cache-pressure", "coherence", "monitor", "rebalancer", ...).
    stress: str = "general"
    fuzzable: bool = True
    #: Optional workload constructor; ``None`` means a plain
    #: ``ObjectOpsWorkload`` over the compiled spec.  Scenarios that
    #: attach a custom popularity process or override the per-thread
    #: program supply their own.
    build: Optional[BuildFn] = None


_REGISTRY: Dict[str, ScenarioEntry] = {}
_builtins_registered = False


def register(name: str, compile: CompileFn, *, summary: str = "",
             stress: str = "general", fuzzable: bool = True,
             build: Optional[BuildFn] = None,
             replace: bool = False) -> ScenarioEntry:
    """Register a scenario generator under ``name``.

    ``compile`` maps a :class:`ScenarioSpec` to the ``ObjectOpsSpec``
    the scenario runs over; ``build``, when given, constructs the
    workload itself (custom popularity / per-thread programs).
    Registering an existing name raises unless ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ConfigError("scenario name must be a non-empty string")
    if not callable(compile):
        raise ConfigError(f"scenario {name!r} compile must be callable")
    _ensure_builtins()
    if name in _REGISTRY and not replace:
        raise ConfigError(
            f"scenario {name!r} is already registered; "
            "pass replace=True to override")
    item = ScenarioEntry(name=name, compile=compile, summary=summary,
                         stress=stress, fuzzable=fuzzable, build=build)
    _REGISTRY[name] = item
    return item


def entry(name: str) -> ScenarioEntry:
    """The full registry entry for ``name`` (raises ConfigError)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; "
            f"choose from {sorted(_REGISTRY)}") from None


# ``resolve`` mirrors the scheduler registry's vocabulary; for
# scenarios the entry *is* the useful object, so they are synonyms.
resolve = entry


def names() -> Tuple[str, ...]:
    """Every registered scenario name, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def fuzzable_names() -> Tuple[str, ...]:
    """Names the property fuzzer draws its scenario axis from."""
    _ensure_builtins()
    return tuple(sorted(name for name, item in _REGISTRY.items()
                        if item.fuzzable))


def entries() -> List[ScenarioEntry]:
    """Every registry entry, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def compile_spec(spec: ScenarioSpec) -> ObjectOpsSpec:
    """The ``ObjectOpsSpec`` the named scenario runs over."""
    ops = entry(spec.name).compile(spec)
    ops.validate()
    return ops


def build(machine, spec: ScenarioSpec) -> ObjectOpsWorkload:
    """A ready-to-spawn workload for ``spec`` on ``machine``."""
    spec.validate()
    item = entry(spec.name)
    if item.build is not None:
        return item.build(machine, spec)
    return ObjectOpsWorkload(machine, compile_spec(spec))


# ---------------------------------------------------------------------------
# scaling helpers shared by the built-in generators
# ---------------------------------------------------------------------------

def _scaled(spec: ScenarioSpec, base: int) -> int:
    """``base`` objects scaled by the spec's multiplier (min 2)."""
    return max(2, round(base * spec.scale))


def _tpc(spec: ScenarioSpec, native: int) -> int:
    return spec.threads_per_core or native


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------
#
# Sizes target the CI tiny machine (2 chips x 2 cores; ~24 KiB of
# on-chip cache): native footprints run 16 KiB - 128 KiB so the hot set
# fits when placement concentrates it and misses when it doesn't —
# exactly the regime where object placement is supposed to matter.

def _compile_zipf_kv(spec: ScenarioSpec) -> ObjectOpsSpec:
    return ObjectOpsSpec(
        n_objects=_scaled(spec, 24), object_bytes=2048,
        think_cycles=40, write_fraction=0.1,
        popularity="zipf", zipf_s=1.1, with_locks=True,
        annotated=True, seed=spec.seed, scan_fraction=0.5,
        threads_per_core=_tpc(spec, 2))


def _compile_pipeline(spec: ScenarioSpec) -> ObjectOpsSpec:
    # One handoff object (and its lock) per stage; write_fraction > 0
    # keeps the buffers writable.
    return ObjectOpsSpec(
        n_objects=_scaled(spec, 4), object_bytes=4096,
        think_cycles=60, write_fraction=0.5,
        popularity="uniform", with_locks=True,
        annotated=True, seed=spec.seed, scan_fraction=0.25,
        threads_per_core=_tpc(spec, 2))


class PipelineWorkload(ObjectOpsWorkload):
    """Producer/consumer stages handing off through shared buffers.

    Each thread is assigned a stage (round-robin over cores and lanes);
    stage *k* drains buffer *k* and fills buffer *k+1*, so every buffer
    is written by one stage and read by the next — a steady stream of
    cross-core handoffs whose coherence cost depends entirely on where
    the two stages run.
    """

    def make_program(self, core_id: int, lane: int = 0) -> Iterator:
        spec = self.spec
        rng = make_rng(spec.seed, "scn-pipeline", core_id, lane)
        n_stages = spec.n_objects
        stage = (core_id + lane * self.machine.n_cores) % n_stages
        src, dst = self.objects[stage], self.objects[(stage + 1) % n_stages]
        src_lock = self.locks[stage]
        dst_lock = self.locks[(stage + 1) % n_stages]
        line = self.machine.spec.line_size
        scan_bytes = max(1, int(spec.object_bytes * spec.scan_fraction))
        n_slots = max(1, spec.object_bytes // line)
        think = Compute(spec.think_cycles) if spec.think_cycles else None

        def program() -> Iterator:
            while True:
                if think is not None:
                    yield think
                # Drain a batch from the upstream handoff buffer...
                yield CtStart(src)
                yield Acquire(src_lock)
                yield Scan(src.addr, scan_bytes, 2)
                yield Release(src_lock)
                yield CtEnd()
                # ...and publish one slot downstream.
                yield CtStart(dst)
                yield Acquire(dst_lock)
                yield Store(dst.addr + rng.randrange(n_slots) * line)
                yield Release(dst_lock)
                yield CtEnd()

        return program()


def _build_pipeline(machine, spec: ScenarioSpec) -> ObjectOpsWorkload:
    return PipelineWorkload(machine, compile_spec(spec))


def _compile_rcu(spec: ScenarioSpec) -> ObjectOpsSpec:
    # write_fraction here is the *single writer's* per-op publish
    # probability (see RcuReadMostlyWorkload); it also marks the
    # objects writable.
    return ObjectOpsSpec(
        n_objects=_scaled(spec, 6), object_bytes=1024,
        think_cycles=20, write_fraction=0.5,
        popularity="uniform", with_locks=False,
        annotated=True, seed=spec.seed, scan_fraction=1.0,
        threads_per_core=_tpc(spec, 2))


class RcuReadMostlyWorkload(ObjectOpsWorkload):
    """Read-dominated sharing with a lone writer (RCU-style).

    Every thread scans the shared structures lock-free; one designated
    writer (core 0, lane 0) occasionally publishes an update, which
    invalidates every reader's cached copy at once — the classic
    read-mostly invalidation storm.
    """

    def make_program(self, core_id: int, lane: int = 0) -> Iterator:
        spec = self.spec
        rng = make_rng(spec.seed, "scn-rcu", core_id, lane)
        core = self.machine.cores[core_id]
        popularity = self.popularity
        writer = core_id == 0 and lane == 0
        line = self.machine.spec.line_size
        scan_bytes = max(1, int(spec.object_bytes * spec.scan_fraction))
        n_lines = max(1, scan_bytes // line)
        think = Compute(spec.think_cycles) if spec.think_cycles else None

        def program() -> Iterator:
            while True:
                if think is not None:
                    yield think
                obj = self.objects[popularity.pick(rng, core.time)]
                yield CtStart(obj)
                yield Scan(obj.addr, scan_bytes, 2)
                if writer and rng.random() < spec.write_fraction:
                    yield Store(obj.addr + rng.randrange(n_lines) * line)
                yield CtEnd()

        return program()


def _build_rcu(machine, spec: ScenarioSpec) -> ObjectOpsWorkload:
    return RcuReadMostlyWorkload(machine, compile_spec(spec))


def _compile_diurnal(spec: ScenarioSpec) -> ObjectOpsSpec:
    return ObjectOpsSpec(
        n_objects=_scaled(spec, 12), object_bytes=2048,
        think_cycles=30, write_fraction=0.05,
        popularity="zipf", zipf_s=0.9, with_locks=True,
        annotated=True, seed=spec.seed, scan_fraction=0.5,
        threads_per_core=_tpc(spec, 2))


class DiurnalBurstWorkload(ObjectOpsWorkload):
    """Bursty arrival intensity: saturated bursts alternate with lulls.

    A square wave on simulated time switches every thread between a
    burst phase (native think time, cores saturated) and a quiet phase
    whose long think times leave cores mostly idle — arrival-rate
    whiplash that the monitor's idle-fraction assessment has to track
    without thrashing the placement.
    """

    PERIOD_CYCLES = 30_000
    QUIET_THINK_MULTIPLIER = 40

    def make_program(self, core_id: int, lane: int = 0) -> Iterator:
        spec = self.spec
        rng = make_rng(spec.seed, "scn-diurnal", core_id, lane)
        core = self.machine.cores[core_id]
        popularity = self.popularity
        period = self.PERIOD_CYCLES
        busy_think = max(1, spec.think_cycles)
        quiet_think = busy_think * self.QUIET_THINK_MULTIPLIER

        def program() -> Iterator:
            while True:
                burst = (core.time // period) % 2 == 0
                yield Compute(busy_think if burst else quiet_think)
                yield from self._one_op(popularity.pick(rng, core.time), rng)

        return program()


def _build_diurnal(machine, spec: ScenarioSpec) -> ObjectOpsWorkload:
    return DiurnalBurstWorkload(machine, compile_spec(spec))


#: Square-wave period of the phase_shift hot set, in cycles.  Several
#: rebalance epochs fit inside each phase at benchmark monitor
#: intervals, so a scheduler that reacts gets to profit before the hot
#: set moves again.
PHASE_SHIFT_PERIOD = 40_000
PHASE_SHIFT_SHRINK = 4


def _compile_phase_shift(spec: ScenarioSpec) -> ObjectOpsSpec:
    # The uniform popularity below is replaced at build time by a
    # rotating oscillating window — kept here so the compiled spec
    # still describes the object set for sizing and reports.
    return ObjectOpsSpec(
        n_objects=_scaled(spec, 16), object_bytes=2048,
        think_cycles=25, write_fraction=0.1,
        popularity="uniform", with_locks=True,
        annotated=True, seed=spec.seed, scan_fraction=0.5,
        threads_per_core=_tpc(spec, 2))


def _build_phase_shift(machine, spec: ScenarioSpec) -> ObjectOpsWorkload:
    ops = compile_spec(spec)
    popularity = OscillatingPopularity(
        ops.n_objects, period_cycles=PHASE_SHIFT_PERIOD,
        shrink=PHASE_SHIFT_SHRINK, rotate=True)
    return ObjectOpsWorkload(machine, ops, popularity=popularity)


def _compile_cpu_storm(spec: ScenarioSpec) -> ObjectOpsSpec:
    return ObjectOpsSpec(
        n_objects=_scaled(spec, 32), object_bytes=4096,
        think_cycles=150, write_fraction=0.02,
        popularity="uniform", with_locks=False,
        annotated=True, seed=spec.seed, scan_fraction=0.25,
        threads_per_core=_tpc(spec, 4))


def _ensure_builtins() -> None:
    """Populate the built-in scenarios once, on first registry use.

    Lazy for the same reason as the scheduler registry: user
    registrations made before first lookup are never displaced
    (built-ins skip taken names).
    """
    global _builtins_registered
    if _builtins_registered:
        return
    _builtins_registered = True

    builtins = (
        ScenarioEntry(
            "zipf_kv", _compile_zipf_kv,
            summary="zipfian key-value store: hot keys cacheable, tail "
                    "spills, writes under locks",
            stress="cache-pressure"),
        ScenarioEntry(
            "pipeline", _compile_pipeline,
            summary="producer/consumer stages handing off through "
                    "shared ring buffers",
            stress="coherence",
            build=_build_pipeline),
        ScenarioEntry(
            "rcu_read_mostly", _compile_rcu,
            summary="lock-free read-mostly sharing; a lone writer "
                    "triggers invalidation storms",
            stress="coherence",
            build=_build_rcu),
        ScenarioEntry(
            "diurnal_burst", _compile_diurnal,
            summary="square-wave arrival intensity: saturated bursts "
                    "alternating with idle lulls",
            stress="monitor",
            build=_build_diurnal),
        ScenarioEntry(
            "phase_shift", _compile_phase_shift,
            summary="hot set contracts and migrates mid-run; stresses "
                    "rebalancer reaction time",
            stress="rebalancer",
            build=_build_phase_shift),
        ScenarioEntry(
            "cpu_storm", _compile_cpu_storm,
            summary="oversubscribed compute over a cold uniform "
                    "footprint far past the caches",
            stress="preemption"),
    )
    for item in builtins:
        if item.name not in _REGISTRY:
            _REGISTRY[item.name] = item
