"""The event bus: typed publish/subscribe with a zero-overhead gate.

Publishers follow one discipline everywhere in the simulator::

    bus = self._bus                  # None when observability is off
    if bus is not None and bus.wants(OperationFinished):
        bus.publish(OperationFinished(...))

``wants`` is a set-membership test, so a disabled or unsubscribed event
type costs one lookup and — crucially — **no event allocation**.  With no
bus attached the publisher pays a single ``is not None`` check, keeping
the simulator's hot path identical to a build without observability.

Handlers are plain callables taking the event.  A handler may subscribe
to specific event classes or (with no classes given) to everything.
Exact-type matching is used, mirroring ``type(event)`` dispatch in the
engine itself; subscribing to a base class does not capture subclasses.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Type

from repro.obs.events import Event

Handler = Callable[[Event], None]


class EventBus:
    """Synchronous typed pub/sub hub."""

    __slots__ = ("_subs", "_all", "published", "dropped_unwanted")

    def __init__(self) -> None:
        self._subs: Dict[Type[Event], List[Handler]] = {}
        self._all: List[Handler] = []
        #: Events delivered to at least one handler.
        self.published = 0
        #: ``publish`` calls that found no handler (indicates a caller
        #: skipping the ``wants`` gate; should stay 0 in the engine).
        self.dropped_unwanted = 0

    # ------------------------------------------------------------------
    # subscription management
    # ------------------------------------------------------------------

    def subscribe(self, handler: Handler,
                  *event_types: Type[Event]) -> Handler:
        """Register ``handler`` for ``event_types`` (or all events).

        Returns the handler so call sites can keep the token for
        :meth:`unsubscribe`.
        """
        if not event_types:
            self._all.append(handler)
        else:
            for etype in event_types:
                self._subs.setdefault(etype, []).append(handler)
        return handler

    def unsubscribe(self, handler: Handler,
                    *event_types: Type[Event]) -> None:
        """Remove ``handler`` from ``event_types`` (or from everywhere).

        Unknown registrations are ignored, so tear-down is idempotent.
        """
        if event_types:
            targets = [(etype, self._subs.get(etype)) for etype in event_types]
        else:
            targets = [(etype, handlers)
                       for etype, handlers in self._subs.items()]
            while handler in self._all:
                self._all.remove(handler)
        for etype, handlers in targets:
            if not handlers:
                continue
            while handler in handlers:
                handlers.remove(handler)
            if not handlers:
                self._subs.pop(etype, None)

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------

    def wants(self, event_type: Type[Event]) -> bool:
        """Would an event of this type reach any handler?

        Publishers call this *before* constructing the event, which is
        what keeps unobserved paths allocation-free.
        """
        return bool(self._all) or event_type in self._subs

    def publish(self, event: Event) -> None:
        delivered = False
        for handler in self._all:
            handler(event)
            delivered = True
        handlers = self._subs.get(type(event))
        if handlers:
            for handler in handlers:
                handler(event)
            delivered = True
        if delivered:
            self.published += 1
        else:
            self.dropped_unwanted += 1

    # ------------------------------------------------------------------

    def handler_count(self) -> int:
        return len(self._all) + sum(len(h) for h in self._subs.values())

    def __repr__(self) -> str:
        return (f"EventBus({self.handler_count()} handlers, "
                f"{self.published} published)")


class EventLog:
    """A bounded in-memory sink for exporters.

    Keeps the first ``max_events`` events and counts the rest in
    ``dropped``, so a long sweep cannot consume unbounded memory while
    short runs (the normal tracing case) are captured completely.  The
    exporters write what was kept; ``python -m repro.bench`` prints the
    kept and dropped counts on stderr next to each ``--trace-out``,
    ``--events-out`` and ``--profile-out`` file, and simbench counts
    the drop as ``obs.events_dropped``.
    """

    __slots__ = ("events", "max_events", "dropped")

    def __init__(self, max_events: int = 250_000) -> None:
        self.events: List[Event] = []
        self.max_events = max_events
        self.dropped = 0

    def __call__(self, event: Event) -> None:
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1

    record = __call__

    def __len__(self) -> int:
        return len(self.events)
