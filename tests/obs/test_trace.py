"""Unit tests for the simulated-time tracer and per-task buffers."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    DEPTH_DETAIL,
    DEPTH_JOB,
    DEPTH_OP,
    DEPTH_PHASE,
    DEPTH_STAGE,
    DEPTH_TASK,
    DEPTH_WAVE,
    DRIVER_TRACK,
    TaskTraceBuffer,
    Tracer,
    slot_track,
)


class TestTracerBasics:
    def test_depth_constants_are_ordered(self):
        depths = [
            DEPTH_JOB,
            DEPTH_STAGE,
            DEPTH_PHASE,
            DEPTH_WAVE,
            DEPTH_TASK,
            DEPTH_OP,
            DEPTH_DETAIL,
        ]
        assert depths == sorted(depths) == list(range(7))

    def test_slot_track_naming(self):
        assert slot_track("node03", "map", 1) == "node03/map1"
        assert slot_track("node03", "reduce", 0) == "node03/reduce0"

    def test_span_and_instant_recording(self):
        t = Tracer()
        t.span("job", "job", DRIVER_TRACK, 0.0, 2.0, DEPTH_JOB, job="j")
        t.instant("mark", "sched", "node00/map0", 1.0, DEPTH_TASK)
        assert len(t) == 2
        assert t.max_depth() == DEPTH_TASK
        (span,) = t.spans_named("job")
        assert span.duration == 2.0
        assert t.spans_in_cat("job") == [span]

    def test_empty_tracer_depth(self):
        assert Tracer().max_depth() == -1


class TestTaskTraceBuffer:
    def test_rebase_onto_absolute_timeline(self):
        t = Tracer()
        buf = t.task_buffer("m0001")
        buf.rel_span("dfs.read", "io", 0.1, 0.4, DEPTH_OP)
        buf.rel_instant("mark", "io", 0.2, DEPTH_DETAIL)
        t.absorb_task(buf, task_start=10.0, track="node00/map0")
        (span,) = t.spans_named("dfs.read")
        assert (span.start, span.end) == (10.1, 10.4)
        assert span.track == "node00/map0"
        (inst,) = [i for i in t.instants if i.name == "mark"]
        assert inst.ts == 10.2

    def test_charged_coordinates_shift_by_base_offset(self):
        """Strategy/index layers record at ``ctx.charged_time``
        positions; ``base_offset`` moves them past the pre-chain costs
        (startup + read) so they land inside the task span."""
        t = Tracer()
        buf = t.task_buffer("m0002")
        buf.base_offset = 0.5
        buf.charged_span("lookup", "op", 0.0, 0.02, DEPTH_OP)
        buf.charged_instant("lookup.retry", "fault", 0.02, DEPTH_DETAIL)
        t.absorb_task(buf, task_start=100.0, track="node01/map1")
        (span,) = t.spans_named("lookup")
        assert (span.start, span.end) == (100.5, 100.52)
        (inst,) = [i for i in t.instants if i.name == "lookup.retry"]
        assert inst.ts == 100.52

    def test_detail_cap_drops_spans_but_keeps_totals(self):
        t = Tracer(max_task_detail=3)
        buf = t.task_buffer("m0003")
        for i in range(10):
            buf.charged_span("lookup", "op", i * 0.01, i * 0.01 + 0.005, DEPTH_OP)
        assert len(buf.rel_spans) == 3
        assert buf.dropped == 7
        count, total = buf.totals["lookup"]
        assert count == 10
        assert abs(total - 0.05) < 1e-12
        t.absorb_task(buf, 0.0, "node00/map0")
        assert t.dropped_detail == 7
        assert len(t.spans_named("lookup")) == 3

    def test_absorb_folds_totals_into_metrics(self):
        metrics = MetricsRegistry()
        t = Tracer(metrics=metrics)
        buf = t.task_buffer("m0004")
        buf.charged_span("lookup", "op", 0.0, 0.02, DEPTH_OP)
        buf.charged_span("lookup", "op", 0.02, 0.05, DEPTH_OP)
        buf.charged_span("cache.probe", "cache", 0.0, 0.001, DEPTH_DETAIL)
        t.absorb_task(buf, 0.0, "node00/map0")
        assert metrics.counter("trace.lookup.count").value == 2
        assert abs(metrics.counter("trace.lookup.seconds").value - 0.05) < 1e-12
        # lookup is histogram-worthy; cache.probe is counted only
        assert metrics.histogram("trace.lookup.latency_s").count == 2
        assert "trace.cache.probe.count" in metrics.to_dict()["counters"]

    def test_absorb_none_is_noop(self):
        t = Tracer()
        t.absorb_task(None, 0.0, "node00/map0")
        assert len(t) == 0
