"""repro.obs — the unified observability subsystem.

One :class:`Observability` object is the telemetry spine for any number
of simulator runs: it owns the typed :class:`~repro.obs.bus.EventBus`,
the :class:`~repro.obs.metrics.MetricsRegistry`, a bounded
:class:`~repro.obs.bus.EventLog` for exporters and an always-recording
:class:`~repro.obs.flight.FlightRecorder` for post-mortems.  Attach it
with ``Simulator(machine, scheduler, obs=obs)``.

Design rules (see DESIGN.md, "Observability"):

* **Zero overhead when absent.**  Every publisher holds a local ``bus``
  reference that is ``None`` without observability; no event object is
  ever constructed on that path.
* **Pay only for what is watched.**  Publishers gate construction on
  ``bus.wants(EventType)``; hot memory-system events are excluded from
  the default subscriptions (``capture_memory=True`` opts in).
* **Metrics are push or pull.**  Hot counters push; values the simulator
  already tracks are pulled at snapshot time via ``gauge_fn``.

Quick use::

    from repro.obs import Observability

    obs = Observability()
    sim = Simulator(machine, CoreTimeScheduler(), obs=obs)
    workload.spawn_all(sim)
    result = sim.run(until=3_000_000)
    obs.write_chrome_trace("run.trace.json")   # load in Perfetto
    print(result.op_latency)                    # HistogramSummary
    print(obs.ascii_timeline())
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional

from repro.obs.bus import EventBus, EventLog
from repro.obs.events import (ALL_EVENTS, CONTROL_EVENTS, EVENT_KINDS,
                              MEMORY_EVENTS, CacheEvicted, CacheInvalidated,
                              Event, FaultInjected, InvariantViolated,
                              LockContended, MigrationStarted,
                              ObjectAssigned, ObjectMoved, OperationFinished,
                              OperationStarted, RebalanceRound, RunMarker,
                              LeaseExpired, SchedDecision, SweepCaseFailed,
                              SweepCaseFinished, SweepCaseStarted,
                              ThreadArrived, ThreadFinished, ThreadSpawned,
                              WorkerJoined, WorkerLost)
from repro.obs.export import (SCHEMA_VERSION, ascii_timeline, chrome_trace,
                              events_to_jsonl, write_chrome_trace,
                              write_jsonl)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (MIGRATION_BUCKETS, OP_LATENCY_BUCKETS,
                               QUEUE_DEPTH_BUCKETS, Counter, Gauge,
                               Histogram, HistogramSummary, MetricsRegistry)


class Observability:
    """Configuration + wiring for one telemetry pipeline.

    ``events``          record control-plane events into the event log
                        (needed by the exporters);
    ``metrics``         build a metrics registry for counters/histograms;
    ``flight``          ring-buffer capacity for the flight recorder
                        (0 disables it);
    ``capture_memory``  also record per-eviction / per-invalidation
                        events (hot; off by default);
    ``max_events``      event-log bound: the log keeps the first
                        ``max_events`` events and counts the rest in
                        ``log.dropped`` rather than growing without
                        limit; ``python -m repro.bench`` reports the
                        drop next to each output built from the events;
    ``flight_path``     where :meth:`on_crash` writes the post-mortem
                        dump (default: stderr).
    """

    def __init__(self, events: bool = True, metrics: bool = True,
                 flight: int = 2048, capture_memory: bool = False,
                 max_events: int = 250_000,
                 flight_path: Optional[str] = None) -> None:
        self.bus = EventBus()
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics else None)
        self.log: Optional[EventLog] = (
            EventLog(max_events) if events else None)
        self.flight: Optional[FlightRecorder] = (
            FlightRecorder(flight) if flight > 0 else None)
        self.flight_path = flight_path
        self.capture_memory = capture_memory
        self.runs: List[str] = []
        recorded = CONTROL_EVENTS + (MEMORY_EVENTS if capture_memory
                                     else ())
        sink = self._recording_sink()
        if sink is not None:
            self.bus.subscribe(sink, *recorded)

    def _recording_sink(self):
        """One handler feeding both the event log and the flight ring.

        Every recorded event passes through here, so the combined sink
        avoids a second handler dispatch per event when both sinks are
        active (the common configuration).  Returns None when neither
        sink exists — subscribing a no-op would flip ``bus.wants`` and
        destroy the allocation-free disabled path.
        """
        log, flight = self.log, self.flight
        if flight is None:
            return log.record if log is not None else None
        if log is None:
            return flight.record

        def record(event, _log=log, _events=log.events,
                   _max=log.max_events, _flight=flight,
                   _ring_append=flight._ring.append):
            if len(_events) < _max:
                _events.append(event)
            else:
                _log.dropped += 1
            _ring_append(event)
            _flight.recorded += 1

        return record

    # ------------------------------------------------------------------
    # simulator attachment
    # ------------------------------------------------------------------

    def begin_run(self, label: str, ts: int = 0) -> None:
        """Mark the start of one simulator run (exporters split here)."""
        self.runs.append(label)
        if self.bus.wants(RunMarker):
            self.bus.publish(RunMarker(ts, label))

    def events(self) -> List[Event]:
        """Recorded events (empty when ``events=False``)."""
        return list(self.log.events) if self.log is not None else []

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        return chrome_trace(self.events())

    def write_chrome_trace(self, path: str) -> str:
        return write_chrome_trace(path, self.events())

    def write_jsonl(self, path: str) -> str:
        """Dump the event log as JSONL; ``.jsonl.gz`` paths gzip it."""
        return write_jsonl(path, self.events())

    def ascii_timeline(self, n_cores: Optional[int] = None,
                       width: int = 72) -> str:
        return ascii_timeline(self.events(), n_cores=n_cores, width=width)

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.metrics.snapshot() if self.metrics is not None else {}

    def profile_report(self, top: int = 10, width: int = 72) -> str:
        """Offline attribution report over the recorded events.

        Same output as ``repro-analyze report`` on a JSONL dump of this
        pipeline; one section per recorded run.  Imports the analyzer
        lazily — the profiling layer stays off the simulation path.
        """
        from repro.obs.stream import Profile
        return Profile.from_events(self.events()).render(top=top,
                                                         width=width)

    # ------------------------------------------------------------------
    # post-mortem
    # ------------------------------------------------------------------

    def on_crash(self, exc: BaseException) -> Optional[str]:
        """Dump the flight recorder after a failed run.

        Returns the dump path when ``flight_path`` is set; otherwise the
        dump goes to stderr and None is returned.  Called by the engine —
        the exception is re-raised by the caller, this only preserves the
        evidence.
        """
        if self.flight is None or len(self.flight) == 0:
            return None
        reason = f"{type(exc).__name__}: {exc}"
        if self.flight_path is not None:
            return self.flight.dump_to_file(self.flight_path, reason)
        self.flight.dump(sys.stderr, reason)
        return None


__all__ = [
    "ALL_EVENTS",
    "SCHEMA_VERSION",
    "CONTROL_EVENTS",
    "EVENT_KINDS",
    "MEMORY_EVENTS",
    "MIGRATION_BUCKETS",
    "OP_LATENCY_BUCKETS",
    "QUEUE_DEPTH_BUCKETS",
    "CacheEvicted",
    "CacheInvalidated",
    "Counter",
    "Event",
    "EventBus",
    "EventLog",
    "FaultInjected",
    "FlightRecorder",
    "InvariantViolated",
    "Gauge",
    "Histogram",
    "HistogramSummary",
    "LeaseExpired",
    "LockContended",
    "MetricsRegistry",
    "MigrationStarted",
    "ObjectAssigned",
    "ObjectMoved",
    "Observability",
    "OperationFinished",
    "OperationStarted",
    "RebalanceRound",
    "RunMarker",
    "SchedDecision",
    "SweepCaseFailed",
    "SweepCaseFinished",
    "SweepCaseStarted",
    "ThreadArrived",
    "ThreadFinished",
    "ThreadSpawned",
    "WorkerJoined",
    "WorkerLost",
    "ascii_timeline",
    "chrome_trace",
    "events_to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]
