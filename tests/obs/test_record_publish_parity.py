"""Differential suite for the recording and live-publish fast paths.

The oracle below is the per-span path as it was before: three frames
per recorded span (``charged_span -> rel_span -> _count``), a bus
publish inside ``absorb_task``'s span loop, one ``Histogram.observe``
per duration, a running total beside the samples and a backwards scan
in ``current``. It lives here, not in ``src``, and every job below runs
once through it and once through the shipped code: spans, instants,
metrics, the bus event sequence, the sample stream, the alert timeline
and the progress snapshot must be equal, value for value.
"""

import dataclasses
import random
from bisect import bisect_left

import pytest

from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.reuse import ReuseStore
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer
from repro.obs import Observability
from repro.obs.analysis.loader import load_one
from repro.obs.live import LiveSession, bus as busmod
from repro.obs.live.engine import SLOEngine
from repro.obs.live.render import render_replay
from repro.obs.live.replay import events_from_artifacts, replay
from repro.obs.live.rules import coerce_rules
from repro.obs.live.snapshot import LiveSnapshot
from repro.obs.live.windows import LiveAggregators
from repro.obs.trace import (
    _HISTOGRAM_NAMES,
    Instant,
    Span,
    TaskTraceBuffer,
    Tracer,
)
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan, RetryPolicy, TaskCrash


# ----------------------------------------------------------------------
# The oracle: the per-span path, verbatim
# ----------------------------------------------------------------------
def _observe(hist, value):
    hist.count += 1
    hist.sum += value
    i = bisect_left(hist.buckets, value)
    if i == len(hist.buckets):
        hist.overflow += 1
    else:
        hist.counts[i] += 1


class OracleBuffer(TaskTraceBuffer):
    def rel_span(self, name, cat, rel_start, rel_end, depth, **args):
        self._count(name, rel_end - rel_start)
        if len(self.rel_spans) >= self.max_detail:
            self.dropped += 1
            return
        self.rel_spans.append((name, cat, rel_start, rel_end, depth, args))

    def rel_instant(self, name, cat, rel_ts, depth, **args):
        self._count(name, 0.0)
        if len(self.rel_instants) >= self.max_detail:
            self.dropped += 1
            return
        self.rel_instants.append((name, cat, rel_ts, depth, args))

    def charged_span(self, name, cat, charged_start, charged_end, depth, **args):
        self.rel_span(
            name,
            cat,
            self.base_offset + charged_start,
            self.base_offset + charged_end,
            depth,
            **args,
        )

    def charged_instant(self, name, cat, charged_ts, depth, **args):
        self.rel_instant(name, cat, self.base_offset + charged_ts, depth, **args)

    def _count(self, name, duration):
        entry = self.totals.get(name)
        if entry is None:
            self.totals[name] = [1, duration]
        else:
            entry[0] += 1
            entry[1] += duration
        if name in _HISTOGRAM_NAMES:
            self.observations.setdefault(name, []).append(duration)


class OracleTracer(Tracer):
    def task_buffer(self, task_id):
        return OracleBuffer(task_id, max_detail=self.max_task_detail)

    def absorb_task(self, buffer, task_start, track):
        if buffer is None:
            return
        for name, cat, rel_start, rel_end, depth, args in buffer.rel_spans:
            args.setdefault("task", buffer.task_id)
            start, end = task_start + rel_start, task_start + rel_end
            self.spans.append(Span(name, cat, track, start, end, depth, args))
            if self.bus is not None:
                self.bus.publish_span(name, cat, track, start, end, depth, args)
        for name, cat, rel_ts, depth, args in buffer.rel_instants:
            args.setdefault("task", buffer.task_id)
            ts = task_start + rel_ts
            self.instants.append(Instant(name, cat, track, ts, depth, args))
            if self.bus is not None:
                self.bus.publish_instant(name, cat, track, ts, depth, args)
        self.dropped_detail += buffer.dropped
        if self.metrics is not None:
            for name, (count, total) in sorted(buffer.totals.items()):
                self.metrics.counter(f"trace.{name}.count").inc(count)
                self.metrics.counter(f"trace.{name}.seconds").inc(total)
            for name, durations in sorted(buffer.observations.items()):
                hist = self.metrics.histogram(f"trace.{name}.latency_s")
                for d in durations:
                    _observe(hist, d)


class OracleAggregators(LiveAggregators):
    """Build progress from its own running total; ``current`` by scan."""

    def __init__(self, bus, **kwargs):
        super().__init__(bus, **kwargs)
        self._cum = {}

    def _emit(self, metric, ts, value, detail):
        self.samples.append((metric, ts, value, detail))
        for fn in self._listeners:
            fn(metric, ts, value, detail)

    def _on_counters(self, event, now):
        deltas = event.payload.get("deltas", {})
        probes = deltas.get("reuse.probes", 0.0)
        if probes > 0:
            pw = self._window("reuse.probes")
            hw = self._window("reuse.hits")
            pw.add(event.ts, probes)
            hw.add(event.ts, deltas.get("reuse.hits", 0.0))
            pw.prune(now)
            hw.prune(now)
            total = pw.sum()
            if total > 0:
                self._emit(
                    "reuse_hit_ratio", now, hw.sum() / total, {"probes": total}
                )
        retries = deltas.get("fault.tasks_retried", 0.0) + deltas.get(
            "fault.lookups_retried", 0.0
        )
        if retries > 0:
            rw = self._window("fault.retries")
            rw.add(event.ts, retries)
            rw.prune(now)
            self._emit(
                "fault_retry_rate", now, rw.rate(), {"window_retries": rw.sum()}
            )
        indexed = deltas.get("build.records_indexed", 0.0)
        if indexed > 0:
            self._cum["build.records_indexed"] = (
                self._cum.get("build.records_indexed", 0.0) + indexed
            )
            self._emit(
                "build_progress", now, self._cum["build.records_indexed"],
                {"delta": indexed},
            )

    def current(self, metric):
        for name, _ts, value, _detail in reversed(self.samples):
            if name == metric:
                return value
        return None


class OracleSession(LiveSession):
    def __init__(self, rules=None):
        self.rules = coerce_rules(rules)
        self.bus = busmod.TelemetryBus()
        self.aggregators = OracleAggregators(self.bus)
        self.engine = SLOEngine(self.rules, self.aggregators)
        self.progress = LiveSnapshot(self.bus, self.aggregators, self.engine)


def test_buffer_records_like_the_call_chain():
    """What no job below records: an instant whose name feeds a latency
    histogram, span args called ``start`` / ``end``, the detail cap hit
    by spans and instants both."""
    new, old = TaskTraceBuffer("t", max_detail=3), OracleBuffer("t", max_detail=3)
    for buf in (new, old):
        buf.base_offset = 0.25
        buf.rel_instant("lookup", "op", 0.1, 5, key=1)
        buf.charged_span("lookup", "op", 0.1, 0.3, 5, start="a", end="b")
        buf.rel_span("index.fetch", "index", 0.2, 0.2, 6, keys=2)
        buf.charged_instant("index.fetch", "index", 0.4, 6)
        for n in range(3):
            buf.rel_span("dfs.read", "io", 0.0, 0.1 * n, 5)
            buf.charged_instant("lookup.retry", "fault", 0.1 * n, 6, n=n)
    for attr in ("totals", "observations", "rel_spans", "rel_instants", "dropped"):
        assert getattr(new, attr) == getattr(old, attr), attr
    assert new.dropped == 4 and new.observations["lookup"][0] == 0.0


# ----------------------------------------------------------------------
# One job, two ways
# ----------------------------------------------------------------------
class _CityOp(IndexOperator):
    def pre_process(self, key, value, index_input):
        user, payload = value
        index_input.put(0, user)
        return key, payload

    def post_process(self, key, value, index_output, collector):
        cities = index_output.get(0).get_all()
        collector.collect(cities[0] if cities else "unknown", value)


SLOW = {"node05": 4.0}
RETRY = RetryPolicy(base_backoff=2e-3, max_backoff=20e-3, attempt_timeout=10e-3)


def _run(oracle, *, max_task_detail=256, mode="forced", faults=None, **runner_kwargs):
    """A fresh cluster, input and index per call: both sides of a pair
    see the same task ids and the same starting state."""
    cluster = Cluster(num_nodes=12, map_slots_per_node=2, reduce_slots_per_node=2)
    dfs = DistributedFileSystem(cluster, block_size=32 * 1024)
    rng = random.Random(13)
    dfs.write(
        "/in/events",
        [(i, (f"user{rng.randrange(300):04d}", "x" * 150)) for i in range(3000)],
    )
    kv = DistributedKVStore("profiles", cluster, service_time=20e-3)
    for u in range(300):
        kv.put_unique(f"user{u:04d}", f"city{u % 25:02d}")
    job = IndexJobConf("parity")
    job.set_input_paths("/in/events").set_output_path("/out/parity")
    job.add_head_index_operator(_CityOp("city-op").add_index(IndexAccessor(kv)))
    job.set_mapper(FnMapper(lambda k, v: [(k, v)], "ident"))
    job.set_reducer(
        FnReducer(lambda k, vs: [(k, len(vs))], "count"), num_reduce_tasks=4
    )

    session = OracleSession() if oracle else LiveSession()
    seen = []
    session.bus.subscribe(seen.append)
    obs = Observability(max_task_detail=max_task_detail, bus=session.bus)
    if oracle:
        obs.tracer = OracleTracer(
            metrics=obs.metrics, max_task_detail=max_task_detail, bus=session.bus
        )
    if faults is not None and faults.lookup_failure_rate:
        kv.set_fault_plan(faults, RETRY)
    runner = EFindRunner(cluster, dfs, obs=obs, fault_plan=faults, **runner_kwargs)
    run_kwargs = (
        {"mode": "dynamic"}
        if mode == "dynamic"
        else {"mode": "forced", "forced_strategy": Strategy.CACHE}
    )
    result = runner.run(job, **run_kwargs)
    session.finish()
    return result, obs, session, seen


def _slow_host():
    return FaultPlan(seed=7, straggler_factors=SLOW)


# Name -> keyword arguments of ``_run``, built afresh for each side of a
# pair: fault plans and reuse sessions carry state.
SCENARIOS = {
    "plain-dynamic": lambda: dict(mode="dynamic"),
    "crashed-attempts": lambda: dict(
        faults=FaultPlan(
            seed=3,
            task_crashes=[
                TaskCrash("parity/main-m0001", after_records=40, attempts=2),
                TaskCrash("parity/main-r0002", after_records=3),
            ],
        )
    ),
    "straggler-scaled": lambda: dict(faults=_slow_host()),
    "speculation": lambda: dict(faults=_slow_host(), speculation_factor=1.5),
    "detail-overflow": lambda: dict(max_task_detail=8, batch_size=16),
    "lookup-retries-reuse": lambda: dict(
        faults=FaultPlan(seed=11, lookup_failure_rate=0.05), reuse=ReuseStore()
    ),
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def pair(request):
    kwargs = SCENARIOS[request.param]
    return request.param, _run(False, **kwargs()), _run(True, **kwargs())


class TestAgainstPerSpanOracle:
    def test_scenario_exercises_what_it_names(self, pair):
        name, (result, obs, session, seen), _ = pair
        spans = obs.tracer.spans
        totals = [s.args["op_totals"] for s in spans if s.name == "task"]
        assert any("lookup" in t or "lookup.batch" in t for t in totals)
        if name == "crashed-attempts":
            assert sum(s.name == "task.crash" for s in spans) == 3
        if name == "straggler-scaled":
            # A scaled buffer: a task on the slow host, ops stretched with it.
            assert any(
                s.name == "task" and s.track.startswith("node05/") for s in spans
            )
        if name == "speculation":
            assert result.counters.get("spec", "backups_launched") > 0
            assert any(s.args.get("speculative") for s in spans)
        if name == "detail-overflow":
            # Counted in full, kept only up to the cap.
            assert obs.tracer.dropped_detail > 0
            assert any("lookup.batch" in t for t in totals)
        if name == "lookup-retries-reuse":
            assert obs.tracer.instants  # retry and reuse.probe instants

    def test_outputs_and_simulated_time(self, pair):
        _, (new, *_), (old, *_) = pair
        assert new.sim_time == old.sim_time
        assert new.counters.to_dict() == old.counters.to_dict()
        assert sorted(new.output) == sorted(old.output)

    def test_tracer_contents(self, pair):
        _, (_, new, *_), (_, old, *_) = pair
        as_rows = lambda items: [dataclasses.astuple(i) for i in items]  # noqa: E731
        assert as_rows(new.tracer.spans) == as_rows(old.tracer.spans)
        assert as_rows(new.tracer.instants) == as_rows(old.tracer.instants)
        assert new.tracer.dropped_detail == old.tracer.dropped_detail
        assert new.metrics.to_dict() == old.metrics.to_dict()

    def test_bus_event_sequence(self, pair):
        _, (*_, new_seen), (*_, old_seen) = pair
        assert len(new_seen) == len(old_seen) > 0
        for new, old in zip(new_seen, old_seen):
            assert tuple(new) == tuple(old)
        assert [e.seq for e in new_seen] == list(range(len(new_seen)))

    def test_samples_alerts_and_snapshot(self, pair):
        _, (_, _, new, _), (_, _, old, _) = pair
        assert new.aggregators.samples == old.aggregators.samples
        assert new.alert_rows() == old.alert_rows()
        assert new.snapshot() == old.snapshot()
        for metric in {s[0] for s in old.aggregators.samples} | {"never.emitted"}:
            assert new.aggregators.current(metric) == old.aggregators.current(metric)
        assert (
            new.aggregators.lookup_latency.to_export()
            == old.aggregators.lookup_latency.to_export()
        )

    def test_replay_of_the_export_reproduces_recorded_alerts(self, pair, tmp_path):
        name, (_, obs, session, _), _ = pair
        rows = session.alert_rows()
        paths = obs.export(str(tmp_path), name, alerts=rows)
        with open(paths["alerts"], "rb") as fh:
            recorded = fh.read()
        artifact = load_one(paths["trace"])
        replayed = LiveSession()
        replay(replayed, events_from_artifacts(artifact))
        replayed.export_alerts(str(tmp_path / "replayed.jsonl"))
        assert (tmp_path / "replayed.jsonl").read_bytes() == recorded
        assert replayed.aggregators.samples == session.aggregators.samples
        if rows:
            assert "matches recorded alerts.jsonl: yes" in render_replay(artifact)[-1]


def test_straggler_scenario_alerts():
    """At least one scenario must produce a non-empty alert timeline,
    or the alert comparisons above compare nothing."""
    _, _, session, _ = _run(False, faults=_slow_host())
    assert any(r["rule"] == "wave-straggler" for r in session.alert_rows())
