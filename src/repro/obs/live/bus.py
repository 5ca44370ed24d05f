"""The in-process telemetry event bus.

A :class:`TelemetryBus` streams what the tracer and runtime record --
spans, instant events, per-task counter deltas, and audit verdicts --
to in-process subscribers *while the simulated run executes*, instead
of only after export. Like every other part of :mod:`repro.obs` it is
strictly passive: publishing charges no simulated time, subscribers
receive plain read-only event records, and a run with a subscribed bus
is bit-identical (simulated time, counters, outputs) to a run without
one. The observer-effect tests pin that down.

Delivery is synchronous and in publish order: every subscriber sees an
event before the next one is built, and a committed task's spans and
instants are handed over in one call (:meth:`TelemetryBus.publish_task`).
The simulation is single-threaded and deterministic, so the event
stream -- including the monotone ``seq`` stamped on every event -- is
byte-reproducible across runs and processes. Publish order is
*commit* order, not simulated-time order: a task committed later can end
earlier than its predecessor, so consumers that need a monotone clock
track a watermark (see :class:`repro.obs.live.windows.LiveAggregators`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple

#: Event kinds, in the vocabulary the aggregators consume.
KIND_SPAN = "span"
KIND_INSTANT = "instant"
KIND_COUNTERS = "counters"
KIND_AUDIT = "audit"

_US = 1_000_000.0

#: The per-lookup detail spans (nearly every span of a run). Consumers
#: that ignore them settle them by name, before reading the payload.
DETAIL_SPANS = frozenset({"lookup", "lookup.batch", "cache.probe", "index.fetch"})


def _quantize_range(start: float, end: float) -> "tuple":
    """Snap a span's endpoints onto the Chrome-trace export grid.

    The export stores ``ts = round(start*1e6, 3)`` and ``dur =
    round(duration*1e6, 3)``; the loader reconstructs ``start = ts/1e6``
    and ``end = start + dur/1e6``. Publishing the *same* quantized
    values at execution time -- mirroring those expressions term by
    term, because float arithmetic does not distribute -- is what lets
    ``python -m repro.obs live`` replay an exported trace into the
    bit-identical sample stream and alert timeline the live run saw.
    """
    start_q = round(start * _US, 3) / _US
    end_q = start_q + round(max(0.0, end - start) * _US, 3) / _US
    return start_q, end_q


def _quantize_ts(ts: float) -> float:
    """The instant-event analogue of :func:`_quantize_range`."""
    return round(ts * _US, 3) / _US


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

#: ``TelemetryEvent(*fields)`` without the generated ``__new__``'s frame.
_new_event = tuple.__new__


class TelemetryBus:
    """Synchronous publish/subscribe fan-out of telemetry events.

    Subscribers are called in subscription order, inside the publishing
    call. They must not mutate simulation state (the bus hands them the
    live ``payload`` dicts for cheapness; treat them as frozen).
    """

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        #: Events published so far, which is also the next ``seq``.
        self.published = 0

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

    # Convenience producers --------------------------------------------
    def publish_span(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: float,
        depth: int,
        args: Dict[str, Any],
    ) -> None:
        start, end = _quantize_range(start, end)
        self.publish(
            KIND_SPAN, name, track, start, end,
            {"cat": cat, "depth": depth, "args": args},
        )

    def publish_instant(
        self,
        name: str,
        cat: str,
        track: str,
        ts: float,
        depth: int,
        args: Dict[str, Any],
    ) -> None:
        ts = _quantize_ts(ts)
        self.publish(
            KIND_INSTANT, name, track, ts, ts,
            {"cat": cat, "depth": depth, "args": args},
        )

    def publish_task(self, spans, instants) -> None:
        """A committed task's spans, then its instants: one call per task.
        Each span's event is built straight from its record, with
        :meth:`publish_span`'s quantisation inlined; the few instants go
        through :meth:`publish_instant`."""
        subscribers = self._subscribers
        seq = self.published
        for s in spans:
            start = round(s.start * _US, 3) / _US
            end = start + round(max(0.0, s.end - s.start) * _US, 3) / _US
            event = _new_event(TelemetryEvent, (
                seq, KIND_SPAN, s.name, s.track, start, end,
                {"cat": s.cat, "depth": s.depth, "args": s.args},
            ))
            seq += 1
            self.published = seq
            for fn in subscribers:
                fn(event)
        for i in instants:
            self.publish_instant(i.name, i.cat, i.track, i.ts, i.depth, i.args)

    def publish_counters(
        self,
        name: str,
        track: str,
        start: float,
        end: float,
        deltas: Dict[str, float],
        **extra: Any,
    ) -> None:
        """One completed unit of work's counter deltas, keyed
        ``<group>.<name>`` (sorted by the producer for determinism)."""
        payload: Dict[str, Any] = {"deltas": deltas}
        payload.update(extra)
        start, end = _quantize_range(start, end)
        self.publish(KIND_COUNTERS, name, track, start, end, payload)

    def publish_audit(
        self, verdict: str, sim_time: float, **fields: Any
    ) -> None:
        self.publish(KIND_AUDIT, verdict, "driver", sim_time, sim_time, fields)
