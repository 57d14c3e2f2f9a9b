"""Transports: how sweep workers reach the coordinator.

Two sides, two idioms:

* **Coordinator side** (:class:`Transport` / :class:`Channel`) is
  asyncio: a transport produces connected :class:`Channel` objects; the
  coordinator awaits frames with :meth:`Channel.recv` and replies with
  the synchronous, fire-and-forget :meth:`Channel.send` (replies and
  feed events are small, so no backpressure is needed and the
  coordinator's message loop stays single-threaded and deterministic).
* **Worker side** (:class:`WorkerChannel`) is blocking: the worker loop
  is a plain request/reply cycle around a CPU-bound simulation, with
  heartbeats fired from a side thread — so sends are serialised by a
  lock and receives stay on the main thread.

:class:`LocalTransport` spawns ``N`` subprocess workers over duplex
pipes — the ``repro-sweep run --workers N`` pool, now speaking the same
protocol as a remote fleet.  :class:`TcpTransport` accepts length-prefixed
JSON frames on a listening socket (workers, status queries and watch
subscribers all arrive here; the coordinator tells them apart by their
first frame).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional

from repro.errors import ConfigError
from repro.sweep.dist.protocol import (ProtocolError, read_frame,
                                       recv_frame, send_frame,
                                       write_frame_nowait)


def pool_context():
    """fork where the platform has it (cheap), spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


# ---------------------------------------------------------------------------
# coordinator-side channels
# ---------------------------------------------------------------------------

class Channel:
    """One connected peer, as the coordinator sees it."""

    #: Worker name, set by the coordinator after a ``hello`` frame
    #: (None for status/watch clients and unidentified peers).
    worker: Optional[str] = None

    async def recv(self) -> Optional[dict]:
        """Next frame from this peer, or None when it is gone."""
        raise NotImplementedError

    def send(self, message: dict) -> None:
        """Queue one frame to this peer; errors mean the peer is gone
        and are swallowed (the reader will deliver the EOF)."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def kill(self) -> None:
        """Force-disconnect (and, for local workers, terminate)."""
        self.close()

    def death_detail(self) -> str:
        """Why this peer died, as a failure-record reason string."""
        return "worker disconnected"


class TcpChannel(Channel):
    """An accepted asyncio TCP connection."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    async def recv(self) -> Optional[dict]:
        try:
            return await read_frame(self._reader)
        except ProtocolError:
            self.close()             # malformed peer: treat as gone
            return None

    def send(self, message: dict) -> None:
        try:
            write_frame_nowait(self._writer, message)
        except (ConnectionError, OSError, RuntimeError):
            pass

    def close(self) -> None:
        try:
            self._writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass

    def kill(self) -> None:
        transport = self._writer.transport
        if transport is not None:
            transport.abort()        # RST now, no lingering close
        else:
            self.close()


class PipeChannel(Channel):
    """Parent side of one local worker subprocess's duplex pipe.

    Receives run on a dedicated thread pool (a blocking
    ``Connection.recv`` per channel); sends are direct writes — the
    worker is always parked in ``recv`` when a reply is due, so small
    frames cannot block the coordinator.
    """

    def __init__(self, conn, process, executor: ThreadPoolExecutor) -> None:
        self._conn = conn
        self.process = process
        self._executor = executor

    def _blocking_recv(self) -> Optional[dict]:
        try:
            return self._conn.recv()
        except (EOFError, OSError):
            return None

    async def recv(self) -> Optional[dict]:
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._executor,
                                              self._blocking_recv)
        except RuntimeError:         # executor shut down mid-teardown
            return None

    def send(self, message: dict) -> None:
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError, ValueError):
            pass

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.close()

    def death_detail(self) -> str:
        self.process.join(timeout=1)
        return f"worker crashed (exit code {self.process.exitcode})"


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

class Transport:
    """Produces connected channels for the coordinator."""

    #: Short name for logs/journal ("local", "tcp").
    name = "transport"

    async def start(self,
                    on_channel: Callable[[Channel], None]) -> None:
        raise NotImplementedError

    async def stop(self) -> None:
        raise NotImplementedError

    def kick(self, channel: Channel) -> None:
        """Force a peer off (local transports also kill the process)."""
        channel.kill()

    def replenish(self) -> None:
        """A worker died; restore capacity if the transport owns it."""


class TcpTransport(Transport):
    """Listen for remote workers / status clients on ``host:port``.

    ``port=0`` binds an ephemeral port; the bound port is published in
    :attr:`port` and :attr:`bound` is set once the server is listening —
    so tests (and scripts) can start the coordinator on a free port and
    then point workers at it.
    """

    name = "tcp"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 on_bound: Optional[Callable[["TcpTransport"], None]]
                 = None) -> None:
        self.host = host
        self.port = port
        self.bound = threading.Event()
        self._on_bound = on_bound
        self._server: Optional[asyncio.base_events.Server] = None
        self._on_channel: Optional[Callable[[Channel], None]] = None

    async def start(self,
                    on_channel: Callable[[Channel], None]) -> None:
        self._on_channel = on_channel
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.bound.set()
        if self._on_bound is not None:
            self._on_bound(self)

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        assert self._on_channel is not None
        self._on_channel(TcpChannel(reader, writer))

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


class LocalTransport(Transport):
    """``N`` worker subprocesses over duplex pipes (the local pool)."""

    name = "local"

    def __init__(self, workers: int, context=None,
                 profile_dir: Optional[str] = None) -> None:
        if workers < 1:
            raise ConfigError("local transport needs >= 1 worker")
        self.workers = workers
        self._ctx = context if context is not None else pool_context()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._channels: List[PipeChannel] = []
        self._on_channel: Optional[Callable[[Channel], None]] = None
        self._counter = 0
        self._profile_dir = profile_dir

    async def start(self,
                    on_channel: Callable[[Channel], None]) -> None:
        self._on_channel = on_channel
        # One blocked recv per live channel, with headroom for the
        # respawn overlap after a kick (old thread drains EOF while the
        # replacement already listens).
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers * 2 + 2,
            thread_name_prefix="sweep-pipe")
        for _ in range(self.workers):
            self._spawn()

    def _spawn(self) -> None:
        from repro.sweep.dist.worker import local_worker_main
        assert self._on_channel is not None and self._executor is not None
        name = f"local-{self._counter}"
        self._counter += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=local_worker_main,
            args=(child_conn, name, self._profile_dir), daemon=True)
        process.start()
        child_conn.close()
        channel = PipeChannel(parent_conn, process, self._executor)
        self._channels.append(channel)
        self._on_channel(channel)

    def replenish(self) -> None:
        alive = sum(1 for channel in self._channels
                    if channel.process.is_alive())
        if alive < self.workers:
            self._spawn()

    async def stop(self) -> None:
        if self._profile_dir is not None:
            # Recording workers flush their shard recording + streaming
            # profile once their channel drains; close the pipes first
            # (EOF unblocks a worker parked in recv) and give them a
            # grace period before resorting to terminate, so the shard
            # files land complete.
            for channel in self._channels:
                channel.close()
            deadline = time.monotonic() + 5.0
            for channel in self._channels:
                channel.process.join(
                    timeout=max(0.0, deadline - time.monotonic()))
        for channel in self._channels:
            if channel.process.is_alive():
                channel.process.terminate()
            channel.close()
        for channel in self._channels:
            channel.process.join(timeout=2)
            if channel.process.is_alive():
                channel.process.kill()
                channel.process.join()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None


# ---------------------------------------------------------------------------
# worker-side (blocking) channels
# ---------------------------------------------------------------------------

class WorkerChannel:
    """Blocking peer handle used inside worker processes.

    ``send`` is thread-safe (the heartbeat thread shares the channel
    with the main loop); ``recv`` is main-thread only.
    """

    def __init__(self) -> None:
        self._send_lock = threading.Lock()

    def _send_raw(self, message: dict) -> None:
        raise NotImplementedError

    def send(self, message: dict) -> None:
        with self._send_lock:
            self._send_raw(message)

    def recv(self) -> Optional[dict]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class PipeWorkerChannel(WorkerChannel):
    """Child side of a local worker's duplex pipe."""

    def __init__(self, conn) -> None:
        super().__init__()
        self._conn = conn

    def _send_raw(self, message: dict) -> None:
        self._conn.send(message)

    def recv(self) -> Optional[dict]:
        try:
            return self._conn.recv()
        except (EOFError, OSError):
            return None

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass


class SocketWorkerChannel(WorkerChannel):
    """A remote worker's (or status client's) TCP connection."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__()
        self._sock = sock

    def _send_raw(self, message: dict) -> None:
        send_frame(self._sock, message)

    def recv(self) -> Optional[dict]:
        return recv_frame(self._sock)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def parse_address(address: str):
    """``host:port`` -> (host, port), with a usable error message."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"bad address {address!r}; expected host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(
            f"bad port in address {address!r}") from None
    return host, port


def connect(address: str, timeout_s: float = 10.0) -> SocketWorkerChannel:
    """Open a blocking protocol channel to a coordinator."""
    host, port = parse_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout_s)
    except OSError as exc:
        raise ConfigError(
            f"cannot reach coordinator at {address}: {exc}") from None
    sock.settimeout(None)
    return SocketWorkerChannel(sock)
