"""Tests for the telemetry event bus: ordering, helpers, and the
export-grid timestamp quantization the replay contract rests on."""

import pytest

from repro.obs.live.bus import (
    KIND_AUDIT,
    KIND_COUNTERS,
    KIND_INSTANT,
    KIND_SPAN,
    TelemetryBus,
    _quantize_range,
    _quantize_ts,
)
from repro.obs.trace import Instant, Span


class TestBusDelivery:
    def test_publish_order_and_monotone_seq(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish_span("b", "task", "t0", 2.0, 3.0, 4, {"x": 1})
        bus.publish_span("a", "task", "t0", 0.0, 1.0, 4, {})
        bus.publish_instant("i", "sched", "t0", 0.5, 4, {})
        assert [e.name for e in seen] == ["b", "a", "i"]
        assert [e.seq for e in seen] == [0, 1, 2]
        assert bus.published == 3

    def test_fanout_in_subscription_order(self):
        bus = TelemetryBus()
        order = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.publish_audit("replan", 1.0, job="j")
        assert order == ["first", "second"]

    def test_unsubscribe(self):
        bus = TelemetryBus()
        seen = []
        fn = bus.subscribe(seen.append)
        bus.publish_instant("x", "c", "t", 0.0, 0, {})
        bus.unsubscribe(fn)
        bus.publish_instant("y", "c", "t", 0.0, 0, {})
        assert [e.name for e in seen] == ["x"]
        assert len(bus) == 0

    def test_event_kinds_and_payloads(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish_span("s", "op", "t", 0.0, 1.0, 5, {"op": "head0"})
        bus.publish_instant("i", "sched", "t", 0.5, 4, {"wave": 1})
        bus.publish_counters("task", "t", 0.0, 1.0, {"g.n": 2.0}, task="j-m0")
        bus.publish_audit("replan", 0.7, job="j", phase="map")
        kinds = [e.kind for e in seen]
        assert kinds == [KIND_SPAN, KIND_INSTANT, KIND_COUNTERS, KIND_AUDIT]
        span, inst, ctr, audit = seen
        assert span.payload["args"] == {"op": "head0"}
        assert span.start == 0.0 and span.ts == 1.0  # span ts is its end
        assert inst.start == inst.ts == 0.5
        assert ctr.payload["deltas"] == {"g.n": 2.0}
        assert ctr.payload["task"] == "j-m0"
        assert audit.name == "replan"
        assert audit.payload == {"job": "j", "phase": "map"}

    def test_events_are_frozen(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish_instant("x", "c", "t", 0.0, 0, {})
        with pytest.raises(AttributeError):
            seen[0].ts = 99.0


class TestPublishTask:
    """A task's spans and instants are handed over in one call; the
    events are the ones the single-event producers build, delivered one
    at a time -- every subscriber sees an event before the next."""

    SPANS = [
        Span("lookup", "op", "n1/map0", 1 / 3, 2 / 3, 5, {"op": "head0"}),
        Span("cache.probe", "cache", "n1/map0", 2.0, 1.0, 6, {"hit": True}),
    ]
    INSTANTS = [Instant("lookup.retry", "fault", "n1/map0", 1 / 7, 6, {"n": 1})]

    def test_builds_the_single_event_producers_events(self):
        one_by_one, per_task = TelemetryBus(), TelemetryBus()
        expected, got = [], []
        one_by_one.subscribe(expected.append)
        per_task.subscribe(got.append)
        for bus in (one_by_one, per_task):
            bus.publish_audit("replan", 0.5)  # so seq does not start at 0
        for s in self.SPANS:
            one_by_one.publish_span(
                s.name, s.cat, s.track, s.start, s.end, s.depth, s.args
            )
        for i in self.INSTANTS:
            one_by_one.publish_instant(i.name, i.cat, i.track, i.ts, i.depth, i.args)
        per_task.publish_task(self.SPANS, self.INSTANTS)
        assert got == expected
        assert [e.seq for e in got] == [0, 1, 2, 3]
        assert per_task.published == one_by_one.published == 4

    def test_delivery_stays_event_major(self):
        bus = TelemetryBus()
        order = []
        bus.subscribe(lambda e: order.append(("first", e.seq, bus.published)))
        bus.subscribe(lambda e: order.append(("second", e.seq, bus.published)))
        bus.publish_task(self.SPANS, self.INSTANTS)
        assert order == [
            (who, seq, seq + 1) for seq in range(3) for who in ("first", "second")
        ]


class TestQuantization:
    """Bus timestamps snap onto the Chrome-trace export grid so replaying
    an exported trace reproduces the execution-time stream exactly."""

    def test_matches_loader_reconstruction(self):
        # The awkward floats a simulation actually produces.
        start, end = 0.9949680197685573, 1.1150381313623072
        us = 1_000_000.0
        exported_ts = round(start * us, 3)
        exported_dur = round(max(0.0, end - start) * us, 3)
        loader_start = exported_ts / us
        loader_end = loader_start + exported_dur / us
        assert _quantize_range(start, end) == (loader_start, loader_end)

    def test_publish_span_quantizes(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish_span("s", "task", "t", 1 / 3, 2 / 3, 4, {})
        (ev,) = seen
        assert ev.start == _quantize_ts(1 / 3)
        # end = start + quantized duration, mirroring the loader.
        assert ev.ts == ev.start + round((2 / 3 - 1 / 3) * 1e6, 3) / 1e6

    def test_counters_quantize_like_their_span(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        start, end = 0.12345678901, 0.98765432109
        bus.publish_counters("task", "t", start, end, {"a.b": 1.0})
        bus.publish_span("task", "task", "t", start, end, 4, {})
        ctr, span = seen
        assert (ctr.start, ctr.ts) == (span.start, span.ts)

    def test_negative_duration_clamped(self):
        s, e = _quantize_range(2.0, 1.0)
        assert s == 2.0 and e == 2.0

    def test_quantize_is_idempotent(self):
        for value in (0.0, 1 / 7, 123.456789, 0.9949680197685573):
            q = _quantize_ts(value)
            assert _quantize_ts(q) == q
