"""Tests for the rolling windows and the live metric aggregators."""

import pytest

from repro.obs.live import LiveSession
from repro.obs.live.bus import (
    KIND_AUDIT,
    KIND_COUNTERS,
    KIND_INSTANT,
    KIND_SPAN,
    TelemetryBus,
)
from repro.obs.live.windows import (
    DEFAULT_WINDOW_S,
    LiveAggregators,
    RollingWindow,
)
from repro.obs.metrics import median


class TestRollingWindow:
    def test_sum_count_mean_rate(self):
        w = RollingWindow(2.0)
        w.add(0.0, 1.0)
        w.add(1.0, 3.0)
        assert w.sum() == 4.0
        assert w.count() == 2
        assert w.mean() == 2.0
        assert w.rate() == 2.0
        assert len(w) == 2

    def test_prune_drops_at_or_before_horizon(self):
        w = RollingWindow(1.0)
        w.add(0.0, 1.0)
        w.add(1.0, 1.0)
        w.add(2.0, 1.0)
        w.prune(2.0)  # horizon 1.0: drops ts <= 1.0
        assert w.count() == 1
        assert w.sum() == 1.0

    def test_prune_handles_out_of_order_arrival(self):
        # Commit order is not time order: a later-added entry can be
        # older. The heap prunes by event time regardless.
        w = RollingWindow(1.0)
        w.add(5.0, 1.0)
        w.add(0.5, 1.0)
        w.add(4.5, 1.0)
        w.prune(5.0)  # horizon 4.0
        assert w.count() == 2
        assert w.sum() == 2.0

    def test_empty_window(self):
        w = RollingWindow(1.0)
        assert w.sum() == 0.0
        assert w.mean() == 0.0
        w.prune(100.0)
        assert w.count() == 0

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            RollingWindow(0.0)


def test_median():
    assert median([3.0]) == 3.0
    assert median([1.0, 3.0]) == 2.0
    assert median([5.0, 1.0, 3.0]) == 3.0


def _span(bus, name, cat, track, start, end, depth, args):
    bus.publish(
        KIND_SPAN, name, track, start, end, {"cat": cat, "depth": depth, "args": args}
    )


def _counters(bus, start, end, deltas):
    bus.publish(KIND_COUNTERS, "task", "t", start, end, {"deltas": deltas})


def _task_span(bus, task, kind, start, end, wave=0):
    _span(
        bus, "task", "task", f"node00 {kind} {task}", start, end, 4,
        {"task": task, "kind": kind, "wave": wave},
    )


def _wave_span(bus, job, kind, wave, start, end, tasks):
    _span(
        bus, f"{kind}.wave{wave}", "wave", "waves", start, end, 3,
        {"kind": kind, "wave": wave, "job": job, "tasks": tasks},
    )


class TestLiveAggregators:
    def test_throughput_sample_per_task(self):
        session = LiveSession()
        bus, agg = session.bus, session.aggregators
        _task_span(bus, "j-m0000", "map", 0.0, 0.4)
        _task_span(bus, "j-m0001", "map", 0.0, 0.5)
        samples = [s for s in agg.samples if s[0] == "throughput.map"]
        assert len(samples) == 2
        # Two completions inside the 1s window -> 2 tasks/s.
        assert samples[-1][2] == 2.0
        assert session.progress.tasks_done[("j", "map")] == 2

    def test_throughput_window_expires(self):
        bus = TelemetryBus()
        agg = LiveAggregators(bus)
        _task_span(bus, "j-m0000", "map", 0.0, 0.1)
        _task_span(bus, "j-m0001", "map", 5.0, 5.1)
        assert agg.current("throughput.map") == 1.0

    def test_straggler_ratio_on_wave_seal(self):
        bus = TelemetryBus()
        agg = LiveAggregators(bus)
        _task_span(bus, "j/main-m0000", "map", 0.0, 0.5)
        _task_span(bus, "j/main-m0001", "map", 0.0, 2.0)
        _wave_span(bus, "j/main", "map", 0, 0.0, 2.0, 2)
        (sample,) = [s for s in agg.samples if s[0] == "straggler_ratio"]
        metric, ts, value, detail = sample
        # max 2.0 over median 1.25 of [0.5, 2.0].
        assert value == 2.0 / 1.25
        # Stamped at the wave's own end, not the watermark.
        assert ts == 2.0
        assert detail["tasks"] == 2

    def test_single_task_wave_answers_one(self):
        bus = TelemetryBus()
        agg = LiveAggregators(bus)
        _task_span(bus, "j-m0000", "map", 0.0, 1.0)
        _wave_span(bus, "j", "map", 0, 0.0, 1.0, 1)
        (sample,) = [s for s in agg.samples if s[0] == "straggler_ratio"]
        assert sample[2] == 1.0

    def test_cache_hit_ratio(self):
        bus = TelemetryBus()
        agg = LiveAggregators(bus)
        for i, hit in enumerate([True, True, False, True]):
            _span(
                bus, "cache.probe", "op.detail", "t", 0.1 * i, 0.1 * i + 0.01,
                6, {"hit": hit},
            )
        assert agg.current("cache_hit_ratio") == 0.75

    def test_counters_drive_reuse_fault_build(self):
        bus = TelemetryBus()
        agg = LiveAggregators(bus)
        _counters(
            bus, 0.0, 0.5,
            {
                "reuse.probes": 10.0,
                "reuse.hits": 4.0,
                "fault.tasks_retried": 1.0,
                "fault.lookups_retried": 3.0,
                "build.records_indexed": 100.0,
            },
        )
        _counters(bus, 0.5, 0.9, {"build.records_indexed": 50.0})
        assert agg.current("reuse_hit_ratio") == 0.4
        assert agg.current("fault_retry_rate") == 4.0 / DEFAULT_WINDOW_S
        assert agg.current("build_progress") == 150.0  # cumulative level

    def test_zero_deltas_emit_nothing(self):
        bus = TelemetryBus()
        agg = LiveAggregators(bus)
        _counters(bus, 0.0, 0.5, {"reuse.probes": 0.0})
        assert agg.samples == []

    def test_display_events_never_touch_watermark_or_samples(self):
        bus = TelemetryBus()
        agg = LiveAggregators(bus)
        bus.publish(KIND_INSTANT, "slot.commit", "t", 99.0, 99.0, {"args": {}})
        bus.publish(KIND_AUDIT, "replan", "driver", 123.0, 123.0, {"job": "j"})
        assert agg.watermark == 0.0
        assert agg.samples == []

    def test_watermark_monotone_under_commit_order(self):
        bus = TelemetryBus()
        agg = LiveAggregators(bus)
        _task_span(bus, "j-m0000", "map", 0.0, 3.0)
        _task_span(bus, "j-m0001", "map", 0.0, 1.0)  # committed later, ended earlier
        assert agg.watermark == 3.0
        # The second sample is emitted at the watermark, not its own end.
        assert [s[1] for s in agg.samples] == [3.0, 3.0]

    def test_lookup_latency_histogram(self):
        bus = TelemetryBus()
        agg = LiveAggregators(bus)
        _span(bus, "lookup", "op", "t", 0.0, 0.02, 5, {})
        _span(bus, "lookup.batch", "op", "t", 0.0, 0.2, 5, {})
        assert agg.lookup_latency.count == 2

    def test_sample_listeners_see_emission_order(self):
        bus = TelemetryBus()
        agg = LiveAggregators(bus)
        seen = []
        agg.on_sample(lambda m, ts, v, d: seen.append(m))
        _task_span(bus, "j-m0000", "map", 0.0, 0.5)
        assert seen == ["throughput.map"]
