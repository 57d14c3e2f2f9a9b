"""The sweep worker loop: lease cells, compute, report, heartbeat.

One synchronous request/reply loop shared by both kinds of worker:

* local pool subprocesses (:func:`local_worker_main`, spawned by
  :class:`~repro.sweep.dist.transport.LocalTransport` over a duplex
  pipe), and
* remote ``repro-sweep work --connect host:port`` processes (a blocking
  TCP socket from :func:`~repro.sweep.dist.transport.connect`).

The loop is deliberately dumb: hello, then request cells one at a time
and compute them with the same :func:`~repro.sweep.runner.
execute_case_record` the serial path uses — which is what makes records
byte-identical across serial, local-pool and TCP execution.  While the
main thread is inside a simulation, a daemon side thread heartbeats at
a third of the coordinator's lease TTL so a *slow* case is never
mistaken for a *dead* worker (the per-case ``--timeout`` budget is the
coordinator's separate, deliberate kill switch).

Test hooks: ``max_cases`` disconnects cleanly after N results (a worker
that leaves mid-sweep), ``fail_after`` hard-exits via ``os._exit`` on
the next lease after N results — a crash that *holds a granted lease*,
which is exactly the case the lease TTL + requeue machinery exists for.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.obs.stream import ShardRecorder
from repro.sweep.dist.protocol import ProtocolError
from repro.sweep.dist.transport import PipeWorkerChannel, WorkerChannel

#: Heartbeats per lease TTL; 3 gives two chances to miss before expiry.
HEARTBEATS_PER_TTL = 3


def work_loop(channel: WorkerChannel, name: str,
              fingerprint: Optional[str] = None,
              say: Optional[Callable[[str], None]] = None,
              max_cases: Optional[int] = None,
              fail_after: Optional[int] = None,
              recorder: Optional[ShardRecorder] = None) -> int:
    """Serve leases from ``channel`` until drained; returns cases done.

    ``fingerprint`` is this worker's :func:`~repro.sweep.spec.
    code_fingerprint`; pass None only for trusted local pipe workers
    (they share the coordinator's tree by construction).  Raises
    :class:`~repro.errors.ConfigError` if the coordinator rejects the
    handshake (fingerprint or name mismatch).  ``recorder`` records
    each computed case's events into this worker's shard — results stay
    records-only on the wire; the recording lands next to the worker.
    """
    from repro.sweep.runner import execute_case_record
    from repro.sweep.spec import SweepCase

    say = say if say is not None else (lambda message: None)
    channel.send({"type": "hello", "worker": name,
                  "fingerprint": fingerprint})
    reply = channel.recv()
    if reply is None:
        raise ConfigError("coordinator closed the connection during "
                          "the handshake")
    if reply.get("type") == "reject":
        raise ConfigError(f"coordinator rejected worker {name!r}: "
                          f"{reply.get('reason', 'no reason given')}")
    if reply.get("type") != "welcome":
        raise ProtocolError(
            f"expected welcome, got {reply.get('type')!r}")
    ttl_s = float(reply.get("ttl_s", 15.0))
    wait_s = float(reply.get("wait_s", 0.5))

    stop_heartbeat = threading.Event()

    def heartbeat() -> None:
        interval = max(ttl_s / HEARTBEATS_PER_TTL, 0.05)
        while not stop_heartbeat.wait(interval):
            try:
                channel.send({"type": "heartbeat", "worker": name})
            except (OSError, ValueError):
                return               # channel gone; main loop will see it

    beat = threading.Thread(target=heartbeat, daemon=True,
                            name=f"heartbeat-{name}")
    beat.start()

    computed = 0
    try:
        while True:
            try:
                channel.send({"type": "request", "worker": name})
            except (OSError, ValueError):
                break
            reply = channel.recv()
            if reply is None:
                break                # coordinator gone
            kind = reply.get("type")
            if kind == "wait":
                time.sleep(float(reply.get("for_s", wait_s)))
                continue
            if kind == "drain":
                break
            if kind != "lease":
                raise ProtocolError(
                    f"expected lease/wait/drain, got {kind!r}")
            if fail_after is not None and computed >= fail_after:
                # Crash while holding this freshly-granted lease: the
                # coordinator must reclaim and requeue it.
                os._exit(9)
            case = SweepCase.from_dict(reply["case"])
            say(f"leased {case.describe()}")
            record = execute_case_record(
                case, reply["fingerprint"],
                verify=bool(reply.get("verify", False)),
                case_key=reply["key"], recorder=recorder)
            try:
                channel.send({"type": "result", "worker": name,
                              "key": reply["key"], "record": record})
            except (OSError, ValueError):
                break
            computed += 1
            if max_cases is not None and computed >= max_cases:
                break                # clean departure mid-sweep
    finally:
        stop_heartbeat.set()
        beat.join(timeout=1.0)
        channel.close()
    return computed


def local_worker_main(conn, name: str,
                      profile_dir: Optional[str] = None) -> None:
    """Subprocess entry point for one local pool worker."""
    channel = PipeWorkerChannel(conn)
    recorder = None
    if profile_dir is not None:
        recorder = ShardRecorder(profile_dir, name)
    try:
        # fingerprint=None: a pipe worker runs the coordinator's own
        # tree, so there is nothing to cross-check.
        work_loop(channel, name, fingerprint=None, recorder=recorder)
    except (ConfigError, ProtocolError, KeyboardInterrupt):
        pass                         # parent shut down / user ^C: exit quietly
    finally:
        if recorder is not None:
            recorder.close()
