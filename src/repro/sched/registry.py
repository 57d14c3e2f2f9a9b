"""First-class scheduler registry.

Every tool that resolves a scheduler by name — the bench harness, the
sweep runner, the verify fuzzer, the CLIs — goes through this module, so
registering a scheduler once makes it reachable everywhere (and puts it
under the conformance suite, which parametrizes over :func:`names`).

An entry is a zero-argument factory plus the metadata reports and the
fuzzer need:

* ``family`` groups entries for documentation and reports ("thread" for
  placement-only policies, "object" for CoreTime, "timeshare" for the
  preemptive classics);
* ``fuzzable`` marks entries the property fuzzer may draw for its case
  axis (config *variants* of an already-fuzzed scheduler opt out — the
  fuzzer owns those knobs itself).

Built-in entries are populated lazily on first lookup so importing
``repro.sched`` stays cheap and free of import cycles; user code may
call :func:`register` at any time (built-ins never displace a name that
is already taken).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import ConfigError

#: Monitoring window benchmarks use for CoreTime on scaled machines.
BENCH_MONITOR_INTERVAL = 100_000

SchedulerFactory = Callable[[], "object"]


def coretime_factory(**config_changes) -> SchedulerFactory:
    """Factory for a CoreTime scheduler with benchmark-friendly defaults."""
    def make():
        from repro.core.coretime import CoreTimeConfig, CoreTimeScheduler
        config = CoreTimeConfig(monitor_interval=BENCH_MONITOR_INTERVAL)
        if config_changes:
            config = config.replace(**config_changes)
        return CoreTimeScheduler(config)
    return make


@dataclass(frozen=True)
class SchedulerEntry:
    """One registered scheduler: its factory plus report/fuzzer metadata."""

    name: str
    factory: SchedulerFactory
    summary: str = ""
    family: str = "other"
    fuzzable: bool = True


_REGISTRY: Dict[str, SchedulerEntry] = {}
_builtins_registered = False


def register(name: str, factory: SchedulerFactory, *, summary: str = "",
             family: str = "other", fuzzable: bool = True,
             replace: bool = False) -> SchedulerEntry:
    """Register a scheduler factory under ``name``.

    ``factory`` is called with no arguments and must return a fresh
    :class:`~repro.sched.base.SchedulerRuntime` (a class object works).
    Registering an existing name raises unless ``replace=True``.

    The extension point for schedulers defined outside this package (see
    README, "Registering a new scheduler"); the built-ins are listed
    directly, so its users in this repository are
    ``tests/test_sched_registry.py``.
    """
    if not name or not isinstance(name, str):
        raise ConfigError("scheduler name must be a non-empty string")
    if not callable(factory):
        raise ConfigError(f"scheduler {name!r} factory must be callable")
    _ensure_builtins()
    if name in _REGISTRY and not replace:
        raise ConfigError(
            f"scheduler {name!r} is already registered; "
            "pass replace=True to override")
    entry = SchedulerEntry(name=name, factory=factory, summary=summary,
                           family=family, fuzzable=fuzzable)
    _REGISTRY[name] = entry
    return entry


def entry(name: str) -> SchedulerEntry:
    """The full registry entry for ``name`` (raises ConfigError)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown scheduler {name!r}; "
            f"choose from {sorted(_REGISTRY)}") from None


def resolve(name: str) -> SchedulerFactory:
    """The factory registered under ``name`` (raises ConfigError)."""
    return entry(name).factory


def create(name: str):
    """A fresh scheduler instance built from ``name``'s factory."""
    return resolve(name)()


def names() -> Tuple[str, ...]:
    """Every registered scheduler name, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def fuzzable_names() -> Tuple[str, ...]:
    """Names the property fuzzer draws its scheduler axis from."""
    _ensure_builtins()
    return tuple(sorted(name for name, item in _REGISTRY.items()
                        if item.fuzzable))


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------

def _ensure_builtins() -> None:
    """Populate the built-in entries once, on first registry use.

    Lazy so that ``import repro.sched`` does not pull in the CoreTime /
    rebalancer stack, and so user registrations made before first lookup
    are never displaced (built-ins skip taken names).
    """
    global _builtins_registered
    if _builtins_registered:
        return
    _builtins_registered = True

    from repro.sched.cache_sharing import CacheSharingScheduler
    from repro.sched.cfs import CFSScheduler
    from repro.sched.mlfq import MLFQScheduler
    from repro.sched.round_robin import RoundRobinScheduler
    from repro.sched.sjf import ShortestJobFirstScheduler
    from repro.sched.thread_clustering import ThreadClusteringScheduler
    from repro.sched.thread_sched import ThreadScheduler
    from repro.sched.work_stealing import WorkStealingScheduler

    builtins = (
        SchedulerEntry(
            "thread", ThreadScheduler,
            summary="pinned threads, round-robin placement (paper's "
                    "'without CoreTime')",
            family="thread"),
        SchedulerEntry(
            "work-stealing", WorkStealingScheduler,
            summary="pinned threads; idle cores steal from the deepest "
                    "run queue",
            family="thread"),
        SchedulerEntry(
            "thread-clustering", ThreadClusteringScheduler,
            summary="threads clustered onto cores by object-access "
                    "similarity",
            family="thread"),
        SchedulerEntry(
            "cache-sharing", CacheSharingScheduler,
            summary="threads grouped to share on-chip cache footprints",
            family="thread"),
        SchedulerEntry(
            "coretime", coretime_factory(),
            summary="O2: operations migrate to the cores that own their "
                    "objects (§4)",
            family="object"),
        SchedulerEntry(
            "coretime-norebalance", coretime_factory(rebalance=False),
            summary="coretime with the epoch rebalancer disabled "
                    "(ablation)",
            family="object",
            # Config variant: the fuzzer already owns the rebalance knob
            # on its "coretime" axis, so drawing this name would only
            # duplicate coverage.
            fuzzable=False),
        SchedulerEntry(
            "rr", RoundRobinScheduler,
            summary="round-robin with a configurable quantum, preempting "
                    "at operation boundaries",
            family="timeshare"),
        SchedulerEntry(
            "cfs", CFSScheduler,
            summary="CFS-style fair scheduling on per-thread virtual "
                    "runtime",
            family="timeshare"),
        SchedulerEntry(
            "sjf", ShortestJobFirstScheduler,
            summary="shortest-job-first on per-thread observed service "
                    "time (EWMA)",
            family="timeshare"),
        SchedulerEntry(
            "mlfq", MLFQScheduler,
            summary="multi-level feedback queue with a decaying CPU "
                    "penalty addon",
            family="timeshare"),
    )
    for item in builtins:
        if item.name not in _REGISTRY:
            _REGISTRY[item.name] = item
