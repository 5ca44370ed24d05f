"""Tests for the telemetry event bus: ordering and delivery, the events
the replay of a recording publishes, and the export-grid timestamp
quantization the replay contract rests on."""

import pytest

from repro.obs.audit import AdaptiveAuditLog
from repro.obs.live.bus import (
    KIND_AUDIT,
    KIND_COUNTERS,
    KIND_INSTANT,
    KIND_SPAN,
    TelemetryBus,
)
from repro.obs.live.replay import (
    _quantize_range,
    _quantize_ts,
    events_from_recording,
    publish,
)
from repro.obs.trace import Tracer


def _span(bus, name, start=0.0, end=1.0, **args):
    payload = {"cat": "op", "depth": 5, "args": args}
    bus.publish(KIND_SPAN, name, "t", start, end, payload)


def _recording():
    """A tracer and audit log: a span, an instant, a note and a task
    span carrying its counter deltas, at awkward floats."""
    tracer, audit = Tracer(), AdaptiveAuditLog()
    tracer.span("s", "op", "t", 0.0, 1.0, 5, op="head0")
    tracer.instant("i", "sched", "t", 0.5, 4, wave=1)
    audit.note("backup", job="j", phase="map", sim_time=0.7)
    tracer.span(
        "task", "task", "t", 0.12345678901, 1.98765432109, 4,
        task="j-m0", kind="map", wave=0, counters={"g.n": 2.0},
    )
    return tracer, audit


class TestBusDelivery:
    def test_publish_order_and_monotone_seq(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        _span(bus, "b", 2.0, 3.0)
        _span(bus, "a", 0.0, 1.0)
        bus.publish(KIND_INSTANT, "i", "t", 0.5, 0.5, {})
        assert [e.name for e in seen] == ["b", "a", "i"]
        assert [e.seq for e in seen] == [0, 1, 2]
        assert bus.published == 3

    def test_fanout_in_subscription_order(self):
        bus = TelemetryBus()
        order = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.publish(KIND_AUDIT, "replan", "driver", 1.0, 1.0, {"job": "j"})
        assert order == ["first", "second"]

    def test_unsubscribe(self):
        bus = TelemetryBus()
        seen = []
        fn = bus.subscribe(seen.append)
        bus.publish(KIND_INSTANT, "x", "t", 0.0, 0.0, {})
        bus.unsubscribe(fn)
        bus.publish(KIND_INSTANT, "y", "t", 0.0, 0.0, {})
        assert [e.name for e in seen] == ["x"]
        assert len(bus) == 0

    def test_event_kinds_and_payloads(self):
        """What the replay of a recording publishes: display events by
        timestamp before the first span that ends at or after them, a
        task's counters event just before its span."""
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        publish(bus, events_from_recording(*_recording()))
        kinds = [e.kind for e in seen]
        assert kinds == [KIND_INSTANT, KIND_AUDIT, KIND_SPAN, KIND_COUNTERS, KIND_SPAN]
        inst, audit, span, ctr, task = seen
        assert span.payload == {"cat": "op", "depth": 5, "args": {"op": "head0"}}
        assert span.start == 0.0 and span.ts == 1.0  # span ts is its end
        assert inst.start == inst.ts == 0.5
        assert inst.payload["args"] == {"wave": 1}
        assert audit.name == "note" and audit.ts == 0.7
        assert audit.payload == {"job": "j", "phase": "map", "seq": 0}
        assert ctr.payload == {
            "deltas": {"g.n": 2.0}, "task": "j-m0", "kind": "map", "wave": 0,
        }
        assert task.payload["args"]["counters"] is ctr.payload["deltas"]

    def test_replay_delivery_stays_event_major(self):
        bus = TelemetryBus()
        order = []
        bus.subscribe(lambda e: order.append(("first", e.seq, bus.published)))
        bus.subscribe(lambda e: order.append(("second", e.seq, bus.published)))
        publish(bus, events_from_recording(*_recording()))
        assert order == [
            (who, seq, seq + 1) for seq in range(5) for who in ("first", "second")
        ]

    def test_events_are_frozen(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish(KIND_INSTANT, "x", "t", 0.0, 0.0, {})
        with pytest.raises(AttributeError):
            seen[0].ts = 99.0


class TestQuantization:
    """A recording's timestamps snap onto the Chrome-trace export grid,
    so replaying it and replaying its export publish the same stream."""

    def test_matches_loader_reconstruction(self):
        # The awkward floats a simulation actually produces.
        start, end = 0.9949680197685573, 1.1150381313623072
        us = 1_000_000.0
        exported_ts = round(start * us, 3)
        exported_dur = round(max(0.0, end - start) * us, 3)
        loader_start = exported_ts / us
        loader_end = loader_start + exported_dur / us
        assert _quantize_range(start, end) == (loader_start, loader_end)

    def test_recorded_span_lands_on_the_grid(self):
        tracer = Tracer()
        tracer.span("s", "task", "t", 1 / 3, 2 / 3, 4)
        tracer.instant("i", "sched", "t", 1 / 7, 4)
        inst, ev = events_from_recording(tracer, AdaptiveAuditLog())
        assert ev[3] == _quantize_ts(1 / 3)
        # end = start + quantized duration, mirroring the loader.
        assert ev[4] == ev[3] + round((2 / 3 - 1 / 3) * 1e6, 3) / 1e6
        assert inst[3] == inst[4] == _quantize_ts(1 / 7)

    def test_counters_share_their_task_spans_range(self):
        events = list(events_from_recording(*_recording()))
        ctr, task = events[-2:]
        assert ctr[0] == KIND_COUNTERS and task[0] == KIND_SPAN
        assert (ctr[3], ctr[4]) == (task[3], task[4])
        assert (task[3], task[4]) == _quantize_range(0.12345678901, 1.98765432109)

    def test_negative_duration_clamped(self):
        s, e = _quantize_range(2.0, 1.0)
        assert s == 2.0 and e == 2.0

    def test_quantize_is_idempotent(self):
        for value in (0.0, 1 / 7, 123.456789, 0.9949680197685573):
            q = _quantize_ts(value)
            assert _quantize_ts(q) == q
