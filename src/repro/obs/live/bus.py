"""The in-process telemetry event bus.

A :class:`TelemetryBus` hands telemetry events -- spans, instant
events, per-task counter deltas and audit verdicts -- to in-process
subscribers. Its one producer in a run is the replay of a recording:
an :class:`~repro.obs.Observability` built with ``bus=`` registers its
tracer and audit log in :attr:`TelemetryBus.recordings`, and
:meth:`repro.obs.live.LiveSession.finish` publishes what they recorded
(:mod:`repro.obs.live.replay`). Nothing is published while the
simulation executes, so a live session cannot perturb it.

Delivery is synchronous and in publish order: every subscriber sees an
event before the next one is built. The event stream -- including the
monotone ``seq`` stamped on every event -- is byte-reproducible across
runs and processes. Publish order is the tracer's *commit* order, not
simulated-time order: a task committed later can end earlier than its
predecessor, so consumers that need a monotone clock track a watermark
(see :class:`repro.obs.live.windows.LiveAggregators`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple

#: Event kinds, in the vocabulary the aggregators consume.
KIND_SPAN = "span"
KIND_INSTANT = "instant"
KIND_COUNTERS = "counters"
KIND_AUDIT = "audit"

#: The per-lookup detail spans (nearly every span of a run). Consumers
#: that ignore them settle them by name, before reading the payload.
DETAIL_SPANS = frozenset({"lookup", "lookup.batch", "cache.probe", "index.fetch"})


class TelemetryEvent(NamedTuple):
    """One bus event (immutable: assigning a field raises).

    ``start``/``ts`` are simulated seconds; for spans ``ts`` is the
    span's *end* (the moment the simulation learns the span existed),
    for everything else ``start == ts``. ``payload`` carries the
    kind-specific detail (span args, counter deltas, audit fields) and
    must be treated as read-only by subscribers.
    """

    seq: int
    kind: str
    name: str
    track: str
    start: float
    ts: float
    payload: Dict[str, Any]


Subscriber = Callable[[TelemetryEvent], None]


class TelemetryBus:
    """Synchronous publish/subscribe fan-out of telemetry events.

    Subscribers are called in subscription order, inside the publishing
    call. They must not mutate what they receive (the bus hands them the
    recorded ``args`` dicts for cheapness; treat them as frozen).
    """

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        #: Events published so far, which is also the next ``seq``.
        self.published = 0
        #: ``(tracer, audit_log)`` of every Observability built with this
        #: bus, in construction order: what the session replays.
        self.recordings: List[tuple] = []

    # ------------------------------------------------------------------
    def subscribe(self, fn: Subscriber) -> Subscriber:
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        self._subscribers.remove(fn)

    def __len__(self) -> int:
        return len(self._subscribers)

    # ------------------------------------------------------------------
    def publish(
        self,
        kind: str,
        name: str,
        track: str,
        start: float,
        ts: float,
        payload: Dict[str, Any],
    ) -> TelemetryEvent:
        event = TelemetryEvent(self.published, kind, name, track, start, ts, payload)
        self.published += 1
        for fn in self._subscribers:
            fn(event)
        return event
