"""Wire protocol for distributed sweeps: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding a single object.  The same framing is used
in both directions and by every peer kind, so one decoder serves the
coordinator (asyncio), remote workers (blocking sockets) and tests (raw
socket pairs).

Message vocabulary (``"type"`` field; everything else is payload):

========== =========== =====================================================
type       direction   meaning
========== =========== =====================================================
hello      peer→coord  join as a worker; carries ``worker`` (name) and
                       ``fingerprint`` (:func:`repro.sweep.spec.
                       code_fingerprint` of the worker's tree, or None for
                       trusted local pipe workers)
status     peer→coord  one-shot status query; coordinator replies with a
                       ``status`` frame and closes
watch      peer→coord  subscribe to the live obs event feed; coordinator
                       replies with a ``meta`` frame (schema version) then
                       one frame per event until the sweep ends
welcome    coord→peer  hello accepted; carries ``ttl_s`` (lease TTL the
                       worker must heartbeat within) and ``wait_s``
reject     coord→peer  hello refused (fingerprint mismatch); carries
                       ``reason``
request    worker→coord ask for one cell
lease      coord→worker one granted cell: ``key``, ``case`` (dict form),
                       ``fingerprint``, ``verify``
wait       coord→worker nothing grantable right now (all cells leased or
                       dispatch stopped); retry after ``for_s`` seconds
drain      coord→worker sweep finished — disconnect and exit cleanly
heartbeat  worker→coord renew every lease held by this worker (no reply)
result     worker→coord one computed record: ``key``, ``record``
========== =========== =====================================================

Workers never receive unsolicited frames: ``welcome``/``reject`` answer
``hello``, and ``lease``/``wait``/``drain`` answer ``request`` — so the
worker side stays a simple blocking request/reply loop, with heartbeats
fired one-way from a side thread.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional

from repro.errors import ReproError

#: Frame length prefix: 4-byte big-endian unsigned.
_LENGTH = struct.Struct(">I")

#: Upper bound on one frame's payload.  Records are small (a case dict,
#: a BenchPoint, at most a bounded flight-recorder tail); anything near
#: this limit is a protocol violation, not a big result.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class ProtocolError(ReproError):
    """A malformed or oversized frame arrived on a sweep connection."""


def encode_frame(message: dict) -> bytes:
    """Serialise one message to its on-wire form (length + JSON)."""
    payload = json.dumps(message, separators=(",", ":"),
                         sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _LENGTH.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame must be an object with a 'type' field")
    return message


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (limit "
            f"{MAX_FRAME_BYTES}); closing")


# ---------------------------------------------------------------------------
# blocking sockets (worker side)
# ---------------------------------------------------------------------------

def send_frame(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes, or None on a clean/abrupt EOF."""
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """One decoded frame, or None when the peer is gone."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    _check_length(length)
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return _decode_payload(payload)


# ---------------------------------------------------------------------------
# asyncio streams (coordinator side)
# ---------------------------------------------------------------------------

async def read_frame(reader) -> Optional[dict]:
    """One decoded frame from an asyncio StreamReader, None on EOF."""
    import asyncio
    try:
        header = await reader.readexactly(_LENGTH.size)
        (length,) = _LENGTH.unpack(header)
        _check_length(length)
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None
    return _decode_payload(payload)


def write_frame_nowait(writer, message: dict) -> None:
    """Queue one frame on an asyncio StreamWriter without awaiting.

    Replies and feed events are small; the coordinator never needs
    backpressure, and a fire-and-forget write keeps its message loop
    fully synchronous (one frame interleaving order per connection).
    """
    writer.write(encode_frame(message))
