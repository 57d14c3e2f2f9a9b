"""Sweep execution: serial and distributed (leased) case runners.

One case is one :func:`repro.bench.harness.run_point` call described by
a :class:`~repro.sweep.spec.SweepCase`.  :func:`execute_case_record`
runs it and always returns a store record — a simulator exception
becomes a ``failed`` record carrying a flight-recorder tail, never an
escaped exception — so a bad cell can never take down a sweep.

:func:`run_cases` drives a case list — every ``repro.bench`` experiment
and, through :func:`run_sweep`, every ``repro-sweep`` grid:

* cells whose ``(case key, code fingerprint)`` already sit in the store
  are skipped (that is what makes ``repro-sweep resume`` free);
* ``workers=0`` runs in-process, in the given order;
* ``workers=N`` leases cases to ``N`` persistent worker subprocesses
  through the :mod:`repro.sweep.dist` coordinator over its local pipe
  transport — the same coordinator, lease table and worker loop that
  ``repro-sweep serve`` uses over TCP, so the single-machine pool and a
  remote fleet are literally one code path.  A worker that crashes or
  goes silent loses its leases; each reclaimed cell is retried under
  the bounded-retry policy and, past the budget, recorded as failed
  while the sweep moves on.  Pass ``transport=`` to run the same grid
  over any other :class:`~repro.sweep.dist.transport.Transport`.

Results are byte-identical between the serial, local-pool and TCP
paths: a case is executed by the same function either way, records
carry only deterministic fields, and wall-clock data goes to the
journal instead.  Progress is observable live through
``SweepCaseStarted`` / ``SweepCaseFinished`` / ``SweepCaseFailed`` (and
in distributed runs ``WorkerJoined`` / ``WorkerLost`` /
``LeaseExpired``) events on an attached
:class:`~repro.obs.Observability` bus (``ts`` is the dispatch sequence
number — sweeps span many simulators with unrelated clocks).  That bus
is never a case's recording: ``recording=`` attaches to each case's
simulator instead, and only in-process.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError
from repro.obs import (Observability, SweepCaseFailed, SweepCaseFinished,
                       SweepCaseStarted)
from repro.sweep.spec import SweepCase, SweepSpec, code_fingerprint
from repro.sweep.store import ResultStore, make_record

#: Events kept from a failing case's flight recorder.
FLIGHT_TAIL = 64

#: Events between invariant checks when a case runs under ``verify``
#: (``repro-sweep --verify`` and ``repro.bench --verify`` alike).
CHECK_INTERVAL = 1024


@dataclass
class RunnerOptions:
    """Execution policy for one sweep run."""

    workers: int = 0
    #: Per-case wall-clock budget in seconds (None = unlimited).
    timeout_s: Optional[float] = None
    #: Extra attempts after a crash or timeout (deterministic simulator
    #: failures are not retried — they would fail identically).
    retries: int = 1
    #: Attach the repro.verify invariant checker inside each worker.
    verify: bool = False
    #: Stop dispatching after this many newly-computed cases (used by the
    #: CI smoke job and tests to simulate a killed run deterministically).
    stop_after: Optional[int] = None
    #: Lease TTL for distributed execution: a worker that goes this long
    #: without a heartbeat forfeits its cells.
    lease_ttl_s: float = 15.0
    #: Directory for per-shard event recordings + streaming profiles
    #: (``repro.obs.stream.ShardRecorder``); None disables recording.
    profile_dir: Optional[str] = None

    def validate(self) -> None:
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError("timeout must be positive")
        if self.lease_ttl_s <= 0:
            raise ConfigError("lease TTL must be positive")


@dataclass
class SweepOutcome:
    """What one :func:`run_sweep` call did."""

    records: Dict[str, dict]             # case key -> record
    computed: int = 0
    cached: int = 0
    failed: int = 0
    stopped: bool = False                # stop_after hit before the end
    elapsed_s: float = 0.0

    @property
    def remaining(self) -> int:
        return sum(1 for r in self.records.values() if r is None)


@contextmanager
def _checking(verify: bool):
    """Give every simulator built inside the block an invariant checker."""
    if not verify:
        yield
        return
    from repro.sim import engine
    from repro.verify import InvariantChecker
    previous = engine._default_checker_factory
    engine.set_default_checker(
        lambda: InvariantChecker(interval=CHECK_INTERVAL))
    try:
        yield
    finally:
        engine.set_default_checker(previous)


def execute_case_record(case: SweepCase, fingerprint: str,
                        verify: bool = False,
                        case_key: Optional[str] = None,
                        event_sink: Optional[Callable] = None,
                        recording: Optional[Observability] = None) -> dict:
    """Run one case to a store record, absorbing simulator failures.

    The record is deterministic: same case + same code -> same bytes,
    whether computed serially, by a pool worker, by a TCP worker on
    another machine, or in a resumed run.

    A case runs with no observability pipeline unless something records
    it: ``event_sink(case, key, events)`` receives the case's full event
    recording (a shard recorder appends it and feeds its streaming
    profile; it sees failed cases too), and ``recording`` is a shared
    pipeline attached to the case's simulator.
    """
    from repro.bench.harness import execute_case
    key = case_key if case_key is not None else case.key()
    obs = recording
    if event_sink is not None:
        obs = Observability(events=True, metrics=False, flight=0)
    with _checking(verify):
        try:
            point = execute_case(case, obs=obs)
            record = make_record(key, case.as_dict(), fingerprint, "ok",
                                 point=dataclasses.asdict(point))
        except Exception as exc:
            # Failure evidence costs only the cells that fail: run the
            # case again, under the same checker, with a flight ring.
            ring = Observability(events=False, metrics=False,
                                 flight=FLIGHT_TAIL)
            try:
                execute_case(case, obs=ring)
            except Exception:
                pass
            record = make_record(key, case.as_dict(), fingerprint,
                                 "failed",
                                 error=f"{type(exc).__name__}: {exc}",
                                 flight=ring.flight.tail(FLIGHT_TAIL))
    if event_sink is not None:
        event_sink(case, key, obs.events())
    return record


# ---------------------------------------------------------------------------
# the sweep driver
# ---------------------------------------------------------------------------

def run_sweep(spec: SweepSpec, store: Optional[ResultStore] = None,
              options: Optional[RunnerOptions] = None,
              obs: Optional[Observability] = None,
              progress: Optional[Callable[[str], None]] = None,
              fingerprint: Optional[str] = None,
              transport=None) -> SweepOutcome:
    """Run (or resume) every case of ``spec``, returning all records.

    With a ``store``, finished cells are read from / written to disk and
    every transition is journalled; without one, results stay in memory.
    ``transport`` overrides how cases are executed (e.g. a
    :class:`~repro.sweep.dist.transport.TcpTransport` for ``repro-sweep
    serve``); by default ``options.workers`` picks serial or local-pool.
    """
    return run_cases(spec.expand(), store=store, options=options,
                     obs=obs, progress=progress, fingerprint=fingerprint,
                     transport=transport)


def run_cases(cases: List[SweepCase],
              store: Optional[ResultStore] = None,
              options: Optional[RunnerOptions] = None,
              obs: Optional[Observability] = None,
              progress: Optional[Callable[[str], None]] = None,
              fingerprint: Optional[str] = None,
              transport=None,
              recording: Optional[Observability] = None) -> SweepOutcome:
    """Run an explicit case list (every ``repro.bench`` experiment's
    points; :func:`run_sweep` expands a grid into one).

    Every case's CoreTime config is checked before any case runs.
    ``recording`` is attached to every case's simulator, which needs
    the in-process path.
    """
    from repro.bench.harness import scheduler_factory
    from repro.sweep.dist.coordinator import Seq

    options = options or RunnerOptions()
    options.validate()
    if recording is not None and (options.workers or transport is not None
                                  or options.profile_dir is not None):
        raise ConfigError("a recording pipeline attaches to in-process "
                          "simulators: it needs workers=0 and no "
                          "transport or profile_dir")
    for case in cases:
        if case.scheduler_config:
            scheduler_factory(case.scheduler, case.scheduler_config)
    keys = [case.key() for case in cases]
    if fingerprint is None:
        fingerprint = code_fingerprint()
    say = progress if progress is not None else (lambda message: None)

    outcome = SweepOutcome(records={key: None for key in keys})
    seq = Seq()                  # dispatch sequence, the obs timestamp
    bus = obs.bus if obs is not None else None

    todo: List[tuple] = []
    for case, key in zip(cases, keys):
        record = store.get(key, fingerprint) if store is not None else None
        if record is not None:
            outcome.records[key] = record
            outcome.cached += 1
            if store is not None:
                store.journal("cached", case=key,
                              label=case.describe())
            ts = seq.next()
            if bus is not None and bus.wants(SweepCaseFinished):
                kops = (record["point"]["kops_per_sec"]
                        if record["status"] == "ok" else 0.0)
                bus.publish(SweepCaseFinished(
                    ts, key, case.scheduler, case.workload_label,
                    kops, cached=True))
        else:
            todo.append((case, key))
    if outcome.cached:
        say(f"{outcome.cached} cached cell(s) skipped")

    started = time.monotonic()

    def finalize(case: SweepCase, key: str, record: dict,
                 elapsed: float, attempt: int) -> None:
        ts = seq.next()
        outcome.records[key] = record
        outcome.computed += 1
        if record["status"] == "ok":
            kops = record["point"]["kops_per_sec"]
            say(f"done {case.describe()}  {kops:,.0f} kops/s")
        else:
            outcome.failed += 1
            say(f"FAILED {case.describe()}: {record['error']}")
        if store is not None:
            store.put(record)
            store.journal("finished" if record["status"] == "ok"
                          else "failed",
                          case=key, label=case.describe(),
                          elapsed_s=round(elapsed, 3), attempt=attempt)
        if bus is not None:
            if record["status"] == "ok" \
                    and bus.wants(SweepCaseFinished):
                bus.publish(SweepCaseFinished(
                    ts, key, case.scheduler, case.workload_label,
                    record["point"]["kops_per_sec"]))
            elif record["status"] == "failed" \
                    and bus.wants(SweepCaseFailed):
                bus.publish(SweepCaseFailed(
                    ts, key, case.scheduler, case.workload_label,
                    record["error"] or "unknown"))

    def announce(case: SweepCase, key: str) -> None:
        ts = seq.next()
        if store is not None:
            store.journal("started", case=key, label=case.describe())
        if bus is not None and bus.wants(SweepCaseStarted):
            bus.publish(SweepCaseStarted(ts, key, case.scheduler,
                                         case.workload_label, case.seed))

    try:
        if transport is None and options.workers > 0:
            from repro.sweep.dist.transport import LocalTransport
            transport = LocalTransport(options.workers,
                                       profile_dir=options.profile_dir)
        if not todo:
            pass                     # everything was cached
        elif transport is None:
            _run_serial(todo, options, fingerprint, announce, finalize,
                        outcome, recording)
        else:
            from repro.sweep.dist.coordinator import Coordinator
            Coordinator(todo, transport, options, fingerprint,
                        announce=announce, finalize=finalize,
                        outcome=outcome, say=say, obs=obs, store=store,
                        seq=seq).run()
    except KeyboardInterrupt:
        if store is not None:
            store.journal("interrupted",
                          computed=outcome.computed,
                          remaining=outcome.remaining)
        raise
    finally:
        outcome.elapsed_s = time.monotonic() - started
    if outcome.stopped and store is not None:
        store.journal("interrupted", computed=outcome.computed,
                      remaining=outcome.remaining)
    return outcome


def _run_serial(todo, options: RunnerOptions, fingerprint: str,
                announce, finalize, outcome: SweepOutcome,
                recording: Optional[Observability]) -> None:
    recorder = None
    if options.profile_dir is not None:
        from repro.obs.stream import ShardRecorder
        recorder = ShardRecorder(options.profile_dir, "serial")
    try:
        for case, key in todo:
            if options.stop_after is not None \
                    and outcome.computed >= options.stop_after:
                outcome.stopped = True
                return
            announce(case, key)
            case_started = time.monotonic()
            record = execute_case_record(
                case, fingerprint, verify=options.verify, case_key=key,
                event_sink=recorder.record if recorder is not None
                else None, recording=recording)
            finalize(case, key, record,
                     time.monotonic() - case_started, attempt=1)
    finally:
        if recorder is not None:
            recorder.close()
