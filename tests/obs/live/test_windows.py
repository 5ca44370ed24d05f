"""Tests for the fold over span rows: the rolling windows, one case per
metric it emits, and the export-grid snapping its recording adapter
rests on."""

import pytest

from repro.obs.live.fold import (
    DEFAULT_WINDOW_S,
    RollingWindow,
    _quantize_range,
    recording_rows,
    samples,
)
from repro.obs.metrics import median
from repro.obs.trace import Tracer


class TestRollingWindow:
    def test_sum_and_rate(self):
        w = RollingWindow(2.0)
        w.add(0.0, 1.0)
        w.add(1.0, 3.0)
        assert w.sum() == 4.0
        assert w.rate() == 2.0

    def test_prune_drops_at_or_before_horizon(self):
        w = RollingWindow(1.0)
        w.add(0.0, 1.0)
        w.add(1.0, 1.0)
        w.add(2.0, 1.0)
        w.prune(2.0)  # horizon 1.0: drops ts <= 1.0
        assert w.sum() == 1.0

    def test_prune_handles_out_of_order_arrival(self):
        # Commit order is not time order: a later-added entry can be
        # older. The heap prunes by event time regardless.
        w = RollingWindow(1.0)
        w.add(5.0, 1.0)
        w.add(0.5, 1.0)
        w.add(4.5, 1.0)
        w.prune(5.0)  # horizon 4.0
        assert w.sum() == 2.0

    def test_empty_window(self):
        w = RollingWindow(1.0)
        assert w.sum() == 0.0
        w.prune(100.0)
        assert w.sum() == 0.0

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            RollingWindow(0.0)


def test_median():
    assert median([3.0]) == 3.0
    assert median([1.0, 3.0]) == 2.0
    assert median([5.0, 1.0, 3.0]) == 3.0


def _task(task, kind, start, end, wave=0, **args):
    return ("task", "task", start, end, dict(task=task, kind=kind, wave=wave, **args))


def _wave(job, kind, wave, start, end, tasks):
    return (
        f"{kind}.wave{wave}", "wave", start, end,
        {"kind": kind, "wave": wave, "job": job, "tasks": tasks},
    )


def _of(stream, metric):
    return [s for s in stream if s[0] == metric]


class TestLiveAggregators:
    """:func:`samples` over hand-built span rows."""

    def test_throughput_sample_per_task(self):
        stream = samples([
            _task("j-m0000", "map", 0.0, 0.4),
            _task("j-m0001", "map", 0.0, 0.5),
        ])
        assert [s[0] for s in stream] == ["throughput.map"] * 2
        # Two completions inside the 1s window -> 2 tasks/s.
        assert stream[-1][2] == 2.0
        assert stream[-1][3] == {"stage": "j", "wave": 0}

    def test_throughput_window_expires(self):
        stream = samples([
            _task("j-m0000", "map", 0.0, 0.1),
            _task("j-m0001", "map", 5.0, 5.1),
        ])
        assert stream[-1][2] == 1.0

    def test_straggler_ratio_on_wave_seal(self):
        stream = samples([
            _task("j/main-m0000", "map", 0.0, 0.5),
            _task("j/main-m0001", "map", 0.0, 2.0),
            _wave("j/main", "map", 0, 0.0, 2.0, 2),
        ])
        (sample,) = _of(stream, "straggler_ratio")
        metric, ts, value, detail = sample
        # max 2.0 over median 1.25 of [0.5, 2.0].
        assert value == 2.0 / 1.25
        # Stamped at the wave's own end, not the watermark.
        assert ts == 2.0
        assert detail["tasks"] == 2

    def test_single_task_wave_answers_one(self):
        stream = samples([
            _task("j-m0000", "map", 0.0, 1.0),
            _wave("j", "map", 0, 0.0, 1.0, 1),
        ])
        (sample,) = _of(stream, "straggler_ratio")
        assert sample[2] == 1.0

    def test_cache_hit_ratio(self):
        stream = samples(
            ("cache.probe", "op.detail", 0.1 * i, 0.1 * i + 0.01, {"hit": hit})
            for i, hit in enumerate([True, True, False, True])
        )
        assert [s[2] for s in stream] == [1.0, 1.0, 2 / 3, 0.75]

    def test_counters_drive_reuse_fault_build(self):
        stream = samples([
            _task(
                "j-m0000", "map", 0.0, 0.5,
                counters={
                    "reuse.probes": 10.0,
                    "reuse.hits": 4.0,
                    "fault.tasks_retried": 1.0,
                    "fault.lookups_retried": 3.0,
                    "build.records_indexed": 100.0,
                },
            ),
            _task(
                "j-m0001", "map", 0.5, 0.9,
                counters={"build.records_indexed": 50.0},
            ),
        ])
        assert _of(stream, "reuse_hit_ratio")[-1][2] == 0.4
        assert _of(stream, "fault_retry_rate")[-1][2] == 4.0 / DEFAULT_WINDOW_S
        # A cumulative level.
        assert [s[2] for s in _of(stream, "build_progress")] == [100.0, 150.0]
        # A task's counter-derived samples come just before its throughput.
        assert [s[0] for s in stream] == [
            "reuse_hit_ratio", "fault_retry_rate", "build_progress",
            "throughput.map", "build_progress", "throughput.map",
        ]

    def test_zero_deltas_emit_nothing(self):
        stream = samples(
            [_task("j-m0000", "map", 0.0, 0.5, counters={"reuse.probes": 0.0})]
        )
        assert [s[0] for s in stream] == ["throughput.map"]

    def test_display_events_never_touch_watermark_or_samples(self):
        """Instants are not rows: one at t=99 moves no sample's stamp."""
        tracer = Tracer()
        tracer.instant("slot.commit", "sched", "t", 99.0, 4)
        tracer.span("task", "task", "t", 0.0, 1.0, 4, task="j-m0", kind="map", wave=0)
        assert [s[1] for s in samples(recording_rows(tracer))] == [1.0]

    def test_watermark_monotone_under_commit_order(self):
        stream = samples([
            _task("j-m0000", "map", 0.0, 3.0),
            _task("j-m0001", "map", 0.0, 1.0),  # committed later, ended earlier
        ])
        # The second sample is emitted at the watermark, not its own end.
        assert [s[1] for s in stream] == [3.0, 3.0]

    def test_other_spans_only_move_the_watermark(self):
        stream = samples([
            ("lookup", "op", 0.0, 4.0, {}),
            ("index.fetch", "index", 0.0, 4.0, {}),
            _task("j-m0000", "map", 0.0, 1.0),
        ])
        assert [(s[0], s[1]) for s in stream] == [("throughput.map", 4.0)]


class TestQuantization:
    """A recording's times snap onto the Chrome-trace export grid, so
    folding it and folding its export read the same rows."""

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
        ((_, _, start, end, _),) = recording_rows(tracer)
        assert start == round(1e6 / 3, 3) / 1e6
        # end = start + quantized duration, mirroring the loader.
        assert end == start + round((2 / 3 - 1 / 3) * 1e6, 3) / 1e6

    def test_negative_duration_clamped(self):
        s, e = _quantize_range(2.0, 1.0)
        assert s == 2.0 and e == 2.0

    def test_quantize_is_idempotent(self):
        for value in (0.0, 1 / 7, 123.456789, 0.9949680197685573):
            once = _quantize_range(value, value * 2 + 1 / 3)
            assert _quantize_range(*once) == once

    def test_recording_rows_are_the_spans(self):
        """One row per span, in append order, carrying the span's own
        args; instants are no rows."""
        tracer = _recording()
        first, task = recording_rows(tracer)
        assert first == ("s", "op", 0.0, 1.0, {"op": "head0"})
        assert task[:2] == ("task", "task")
        assert task[4] is tracer.spans[1].args

    def test_task_row_carries_its_counters_on_the_grid(self):
        """A task's counter deltas ride in its row's args, and the row
        sits on the export grid like any other span."""
        _, task = recording_rows(_recording())
        assert task[2:4] == _quantize_range(0.12345678901, 1.98765432109)
        assert task[4]["counters"] == {"g.n": 2.0}
        assert (task[4]["task"], task[4]["kind"], task[4]["wave"]) == ("j-m0", "map", 0)


def _recording():
    """A tracer holding a span, an instant and a task span carrying its
    counter deltas, at awkward floats."""
    tracer = Tracer()
    tracer.span("s", "op", "t", 0.0, 1.0, 5, op="head0")
    tracer.instant("i", "sched", "t", 0.5, 4, wave=1)
    tracer.span(
        "task", "task", "t", 0.12345678901, 1.98765432109, 4,
        task="j-m0", kind="map", wave=0, counters={"g.n": 2.0},
    )
    return tracer
