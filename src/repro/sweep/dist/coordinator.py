"""The sweep coordinator: lease cells out, survive the fleet.

The coordinator owns the sweep's control state — a pending deque, the
:class:`~repro.sweep.dist.lease.LeaseTable`, per-case attempt counts —
and treats workers as untrusted, disposable compute: any worker may
crash, hang, or vanish at any point, and the only durable truth is the
content-addressed :class:`~repro.sweep.store.ResultStore` the caller's
``finalize`` callback writes into.

Concurrency model: all I/O multiplexes onto one asyncio loop, but every
*decision* is made synchronously.  A reader task per connection pushes
``(channel, frame)`` pairs onto a single queue (``None`` frames mark
disconnects); the main loop pops one at a time and calls the plain-sync
:meth:`_handle`, interleaved with a periodic :meth:`_tick` for TTL and
timeout sweeps.  Replies never await (``Channel.send`` is
fire-and-forget), so there is exactly one state-machine mutation in
flight at any moment — which is why the unit tests can drive
``_handle``/``_tick`` directly with stub channels and a fake clock, no
event loop required.

Failure policy (the PR-5 pool semantics, generalised):

* a lease whose worker misses heartbeats past the TTL is **expired**;
* a worker whose connection drops loses all its leases (``worker
  lost``); local pool workers are respawned via
  :meth:`~repro.sweep.dist.transport.Transport.replenish`;
* a lease older than the per-case ``--timeout`` budget gets its worker
  kicked (``timeout``) — distinct from the TTL, because a *hung
  simulator* still heartbeats.

Each reclaim publishes a ``LeaseExpired`` event and either requeues the
cell at the *front* of the deque (attempt <= retries; front, so a
retried cell keeps its dispatch-order position) or records it failed.
Completion is idempotent: records carry only deterministic fields, so a
late result from a worker presumed dead is byte-identical to the retry
and the second copy is dropped without effect.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import (LeaseExpired, Observability, WorkerJoined,
                       WorkerLost)
from repro.obs.export import SCHEMA_VERSION
from repro.sweep.dist.lease import LeaseTable
from repro.sweep.dist.transport import Channel, Transport
from repro.sweep.store import make_record

#: Default lease-table sweep interval (seconds) when the queue is idle.
TICK_S = 0.1
#: Default retry delay handed to workers in ``wait`` frames.
WAIT_S = 0.5


class Seq:
    """Shared dispatch-sequence counter (the obs ``ts`` for sweep events).

    The runner's announce/finalize closures and the coordinator's
    worker-lifecycle events draw from one counter, so the merged event
    stream has a single total order.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def next(self) -> int:
        value = self.value
        self.value += 1
        return value


class Coordinator:
    """Drive one sweep's todo list over a :class:`Transport`.

    ``announce(case, key)`` and ``finalize(case, key, record, elapsed,
    attempt)`` are the runner's closures (journal + bus + outcome
    bookkeeping); the coordinator never touches the store directly
    except to journal its own worker-lifecycle entries.
    """

    def __init__(self, todo: List[Tuple], transport: Transport,
                 options, fingerprint: str, *,
                 announce: Callable, finalize: Callable, outcome,
                 say: Optional[Callable[[str], None]] = None,
                 obs: Optional[Observability] = None,
                 store=None, seq: Optional[Seq] = None,
                 clock: Callable[[], float] = time.monotonic,
                 tick_s: float = TICK_S, wait_s: float = WAIT_S) -> None:
        self.transport = transport
        self.options = options
        self.fingerprint = fingerprint
        self.announce = announce
        self.finalize = finalize
        self.outcome = outcome
        self.say = say if say is not None else (lambda message: None)
        self.bus = obs.bus if obs is not None else None
        self.store = store
        self.seq = seq if seq is not None else Seq()
        self.tick_s = tick_s
        self.wait_s = wait_s
        self._clock = clock

        self.pending = deque(todo)                    # (case, key)
        self.cases = {key: case for case, key in todo}
        self.attempts: Dict[str, int] = {}
        self.granted_at: Dict[str, float] = {}
        self.leases = LeaseTable(options.lease_ttl_s, clock)
        self.workers: Dict[str, Channel] = {}
        self.worker_seen: Dict[str, float] = {}
        self.watchers: List[Channel] = []
        self.channels: set = set()

        self._queue: Optional[asyncio.Queue] = None
        self._loop = None
        self._readers: List[asyncio.Task] = []

    # ------------------------------------------------------------------
    # progress predicates
    # ------------------------------------------------------------------

    def _stop_reached(self) -> bool:
        stop_after = self.options.stop_after
        return (stop_after is not None
                and self.outcome.computed + len(self.leases) >= stop_after)

    def _finished(self) -> bool:
        if self.leases:
            return False
        if not self.pending:
            return True
        return self._stop_reached()   # cells remain, but dispatch stopped

    # ------------------------------------------------------------------
    # message handling (synchronous — one mutation at a time)
    # ------------------------------------------------------------------

    def _handle(self, channel: Channel, message: dict) -> None:
        if channel.worker is not None:
            self.worker_seen[channel.worker] = self._clock()
        kind = message.get("type")
        if kind == "hello":
            self._handle_hello(channel, message)
        elif kind == "request":
            self._handle_request(channel)
        elif kind == "heartbeat":
            if channel.worker is not None:
                self.leases.renew_worker(channel.worker)
        elif kind == "result":
            self._handle_result(channel, message)
        elif kind == "status":
            channel.send(self.status_payload())
            channel.close()
        elif kind == "watch":
            self.watchers.append(channel)
            channel.send({"type": "meta",
                          "schema_version": SCHEMA_VERSION})
        else:
            channel.send({"type": "reject",
                          "reason": f"unknown frame type {kind!r}"})
            channel.close()

    def _reject(self, channel: Channel, reason: str) -> None:
        channel.send({"type": "reject", "reason": reason})
        channel.close()

    def _handle_hello(self, channel: Channel, message: dict) -> None:
        name = message.get("worker")
        fingerprint = message.get("fingerprint")
        if not isinstance(name, str) or not name:
            self._reject(channel, "hello carried no worker name")
            return
        if fingerprint is not None and fingerprint != self.fingerprint:
            self._reject(
                channel,
                f"code fingerprint {fingerprint} does not match the "
                f"coordinator's {self.fingerprint}; records would not "
                f"be comparable — update the worker's tree")
            return
        if name in self.workers:
            self._reject(channel, f"worker name {name!r} is already "
                                  f"connected")
            return
        channel.worker = name
        self.workers[name] = channel
        self.worker_seen[name] = self._clock()
        ts = self.seq.next()
        if self.bus is not None and self.bus.wants(WorkerJoined):
            self.bus.publish(WorkerJoined(ts, name))
        self._journal("worker_join", worker=name)
        self.say(f"worker {name} joined")
        channel.send({"type": "welcome",
                      "ttl_s": self.options.lease_ttl_s,
                      "wait_s": self.wait_s})

    def _handle_request(self, channel: Channel) -> None:
        name = channel.worker
        if name is None:
            self._reject(channel, "request before hello")
            return
        if self.pending and not self._stop_reached():
            case, key = self.pending.popleft()
            attempt = self.attempts.get(key, 0) + 1
            self.attempts[key] = attempt
            lease = self.leases.grant(key, name, attempt)
            self.granted_at[key] = lease.granted_at
            if attempt == 1:
                self.announce(case, key)
            channel.send({"type": "lease", "key": key,
                          "case": case.as_dict(),
                          "fingerprint": self.fingerprint,
                          "verify": self.options.verify})
        elif self.leases:
            # Everything grantable is leased out (or dispatch is
            # stopped); a reclaim may requeue work, so hold the worker.
            channel.send({"type": "wait", "for_s": self.wait_s})
        else:
            channel.send({"type": "drain"})

    def _handle_result(self, channel: Channel, message: dict) -> None:
        key = message.get("key")
        record = message.get("record")
        if channel.worker is None or not isinstance(record, dict):
            return
        lease = self.leases.release(key)
        case = self.cases.get(key)
        if case is None:
            return                   # not a cell of this sweep
        if self.outcome.records.get(key) is not None:
            return                   # idempotent duplicate: drop
        # A reclaimed-but-now-delivered cell may sit requeued; take it
        # back out rather than computing it twice.
        for index, (_, pending_key) in enumerate(self.pending):
            if pending_key == key:
                del self.pending[index]
                break
        attempt = (lease.attempt if lease is not None
                   else self.attempts.get(key, 1))
        elapsed = self._clock() - self.granted_at.get(key, self._clock())
        self.finalize(case, key, record, elapsed, attempt)

    # ------------------------------------------------------------------
    # lease policing
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        for lease in self.leases.expired():
            self._reclaim(
                lease, "expired",
                f"lease expired after {self.leases.ttl_s:g}s without a "
                f"heartbeat")
        timeout_s = self.options.timeout_s
        if timeout_s is not None:
            for lease in self.leases.overdue(timeout_s):
                self.leases.release(lease.key)
                worker_channel = self.workers.get(lease.worker)
                if worker_channel is not None:
                    self.transport.kick(worker_channel)
                self._reclaim(lease, "timeout",
                              f"timeout after {timeout_s:g}s")

    def _reclaim(self, lease, reason: str, detail: str) -> None:
        """A lease died (``reason``): requeue its cell or fail it."""
        case = self.cases[lease.key]
        ts = self.seq.next()
        if self.bus is not None and self.bus.wants(LeaseExpired):
            self.bus.publish(LeaseExpired(ts, lease.key, lease.worker,
                                          lease.attempt, reason))
        self._journal("lease_expired", case=lease.key,
                      worker=lease.worker, attempt=lease.attempt,
                      reason=reason)
        if lease.attempt <= self.options.retries:
            self.say(f"retrying {case.describe()} ({detail})")
            self.pending.appendleft((case, lease.key))
        else:
            record = make_record(lease.key, case.as_dict(),
                                 self.fingerprint, "failed", error=detail)
            self.finalize(case, lease.key, record,
                          self._clock() - lease.granted_at, lease.attempt)

    def _on_disconnect(self, channel: Channel) -> None:
        self.channels.discard(channel)
        if channel in self.watchers:
            self.watchers.remove(channel)
        name = channel.worker
        if name is not None and self.workers.get(name) is channel:
            del self.workers[name]
            held = self.leases.worker_leases(name)
            for lease in held:
                self.leases.release(lease.key)
            ts = self.seq.next()
            if self.bus is not None and self.bus.wants(WorkerLost):
                self.bus.publish(WorkerLost(ts, name, len(held)))
            self._journal("worker_lost", worker=name, leases=len(held))
            if held:
                self.say(f"worker {name} lost "
                         f"({len(held)} lease(s) reclaimed)")
            detail = channel.death_detail()
            for lease in held:
                self._reclaim(lease, "worker lost", detail)
            if self.pending or self.leases:
                self.transport.replenish()
        channel.close()

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------

    def status_payload(self) -> dict:
        now = self._clock()
        workers = {
            name: {
                "leases": len(self.leases.worker_leases(name)),
                "seen_s_ago": round(now - self.worker_seen[name], 3),
            }
            for name in sorted(self.workers)
        }
        records = self.outcome.records
        return {
            "type": "status",
            "total": len(records),
            "done": sum(1 for record in records.values()
                        if record is not None),
            "pending": len(self.pending),
            "leased": len(self.leases),
            "computed": self.outcome.computed,
            "cached": self.outcome.cached,
            "failed": self.outcome.failed,
            "workers": workers,
        }

    def _journal(self, event: str, **fields) -> None:
        if self.store is not None:
            self.store.journal(event, **fields)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------

    def _broadcast(self, event) -> None:
        """Bus handler: forward every sweep event to watch subscribers."""
        if not self.watchers:
            return
        frame = {"type": "event", "event": event.as_dict()}
        for watcher in list(self.watchers):
            watcher.send(frame)

    def _on_channel(self, channel: Channel) -> None:
        self.channels.add(channel)
        self._readers.append(self._loop.create_task(self._reader(channel)))

    async def _reader(self, channel: Channel) -> None:
        while True:
            message = await channel.recv()
            await self._queue.put((channel, message))
            if message is None:
                return

    def run(self) -> None:
        """Drive the sweep to completion (blocking)."""
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        if self.bus is not None:
            self.bus.subscribe(self._broadcast)
        try:
            await self.transport.start(self._on_channel)
            while not self._finished():
                try:
                    channel, message = await asyncio.wait_for(
                        self._queue.get(), timeout=self.tick_s)
                except asyncio.TimeoutError:
                    pass
                else:
                    if message is None:
                        self._on_disconnect(channel)
                    else:
                        self._handle(channel, message)
                self._tick()
            if self.pending:
                self.outcome.stopped = True
        finally:
            if self.bus is not None:
                self.bus.unsubscribe(self._broadcast)
            drain = {"type": "drain"}
            for channel in list(self.channels):
                channel.send(drain)
            await asyncio.sleep(0.05)     # let the drains flush
            for task in self._readers:
                task.cancel()
            await self.transport.stop()
            for channel in list(self.channels):
                channel.close()
