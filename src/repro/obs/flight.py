"""The flight recorder: a bounded ring of the most recent events.

Always-on (when observability is attached) and cheap — recording is one
``deque.append`` onto a ``maxlen`` ring, so it can run under every test
and benchmark.  When the engine dies with a
:class:`~repro.errors.SimulationError` (deadlock, invalid scheduler
decision, runaway program) the ring holds the last moments of the run,
which is usually exactly what is needed to see *why*.

The engine dumps the ring automatically on a crashed
:meth:`~repro.sim.engine.Simulator.run` via
:meth:`~repro.obs.Observability.on_crash`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, TextIO

from repro.obs.events import Event


class FlightRecorder:
    """Ring buffer of the last ``capacity`` events."""

    __slots__ = ("capacity", "_ring", "recorded", "dumps")

    def __init__(self, capacity: int = 2048) -> None:
        self.capacity = capacity
        self._ring: Deque[Event] = deque(maxlen=capacity)
        #: Total events ever recorded (>= len(ring) once it wraps).
        self.recorded = 0
        #: Times the ring was dumped (tests assert crash paths fire once).
        self.dumps = 0

    def record(self, event: Event) -> None:
        self._ring.append(event)
        self.recorded += 1

    __call__ = record

    def __len__(self) -> int:
        return len(self._ring)

    def tail(self, limit: int) -> List[dict]:
        """Primitive-dict form of the last ``limit`` events, oldest first.

        This is what :class:`~repro.verify.invariants.InvariantViolation`
        embeds: dicts (not live events) so the exception can outlive the
        simulator, and at most ``limit`` of them so a violation raised
        from a big ring stays a reasonably sized object.
        """
        if limit <= 0:
            return []
        ring = self._ring
        start = max(0, len(ring) - limit)
        return [event.as_dict() for event in list(ring)[start:]]

    # ------------------------------------------------------------------
    # dumping
    # ------------------------------------------------------------------

    def dump_text(self, reason: Optional[str] = None) -> str:
        """Human-readable dump of the ring, oldest first."""
        header = [f"=== flight recorder: last {len(self._ring)} of "
                  f"{self.recorded} events ==="]
        if reason:
            header.append(f"reason: {reason}")
        lines = header
        for event in self._ring:
            data = event.as_dict()
            ts = data.pop("ts")
            kind = data.pop("kind")
            detail = " ".join(f"{key}={value}"
                              for key, value in data.items())
            lines.append(f"[{ts:>12}] {kind:<10} {detail}")
        self.dumps += 1
        return "\n".join(lines)

    def dump(self, stream: TextIO, reason: Optional[str] = None) -> None:
        stream.write(self.dump_text(reason) + "\n")

    def dump_to_file(self, path: str,
                     reason: Optional[str] = None) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            self.dump(handle, reason)
        return path

    def __repr__(self) -> str:
        return (f"FlightRecorder({len(self._ring)}/{self.capacity}, "
                f"{self.recorded} recorded)")
