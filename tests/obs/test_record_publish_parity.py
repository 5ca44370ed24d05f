"""Round trips of the span path: record, export, load, replay.

A traced run's spans exist in three forms: the tracer's records, the
events a live session publishes from them at ``finish()`` and the
exported artifacts. Every job below runs once, traced and live, and the
forms are held to oracles that share no code with the path under test:

* per span, the export grid -- plain arithmetic on the tracer's record
  (microseconds, three decimals, args through ``json``): the rows loaded
  back from the export must equal it, in tracer order;
* per run, the two replays -- :mod:`repro.obs.live.replay` over the
  run's own exported artifacts must reproduce the span and counter
  events the session published from the in-memory recording, its
  sample stream, alert rows and progress snapshot;
* per run, an untraced twin of the job: same output, counters and
  simulated time.

The jobs cover forced Cache with reuse, Dynamic, faults (crashed
attempts, a straggling host, retried lookups, speculation) and B = 64
with the per-task detail cap hit.
"""

import json
import random

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
from repro.obs.live.render import render_replay
from repro.obs.live.replay import events_from_artifacts, replay
from repro.obs.trace import Instant, Span, TaskTraceBuffer, Tracer
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan, RetryPolicy, TaskCrash

US = 1_000_000


def test_buffer_records_like_the_call_chain():
    """What no job below records: an instant whose name feeds a latency
    histogram, span args called ``start`` / ``end``, the detail cap hit
    by spans and instants both. Charged positions shift by
    ``base_offset``, every item counts, only detail is capped, and
    absorbing re-bases the kept records onto the task's track."""
    buf = TaskTraceBuffer("t", max_detail=3)
    buf.base_offset = 0.25
    buf.rel_instant("lookup", "op", 0.1, 5, key=1)
    buf.charged_span("lookup", "op", 0.1, 0.3, 5, start="a", end="b")
    buf.rel_span("index.fetch", "index", 0.2, 0.2, 6, keys=2)
    buf.charged_instant("index.fetch", "index", 0.4, 6)
    for n in range(3):
        buf.rel_span("dfs.read", "io", 0.0, 0.1 * n, 5)
        buf.charged_instant("lookup.retry", "fault", 0.1 * n, 6, n=n)

    lookup = (0.25 + 0.3) - (0.25 + 0.1)
    assert buf.totals == {
        "lookup": [2, 0.0 + lookup],
        "index.fetch": [2, 0.0],
        "dfs.read": [3, 0.0 + 0.1 + 0.2],
        "lookup.retry": [3, 0.0],
    }
    assert buf.observations == {"lookup": [0.0, lookup], "index.fetch": [0.0, 0.0]}
    assert buf.dropped == 4
    spans = [
        Span("lookup", "op", "", 0.25 + 0.1, 0.25 + 0.3, 5,
             {"start": "a", "end": "b", "task": "t"}),
        Span("index.fetch", "index", "", 0.2, 0.2, 6, {"keys": 2, "task": "t"}),
        Span("dfs.read", "io", "", 0.0, 0.0, 5, {"task": "t"}),
    ]
    instants = [
        Instant("lookup", "op", "", 0.1, 5, {"key": 1, "task": "t"}),
        Instant("index.fetch", "index", "", 0.25 + 0.4, 6, {"task": "t"}),
        Instant("lookup.retry", "fault", "", 0.25 + 0.0, 6, {"n": 0, "task": "t"}),
    ]
    assert buf.rel_spans == spans and buf.rel_instants == instants

    tracer = Tracer()
    tracer.absorb_task(buf, 2.0, "n1/map0")
    assert [(s.track, s.start, s.end) for s in tracer.spans] == [
        ("n1/map0", 2.0 + s.start, 2.0 + s.end) for s in spans
    ]
    assert [(i.track, i.ts) for i in tracer.instants] == [
        ("n1/map0", 2.0 + i.ts) for i in instants
    ]
    assert tracer.dropped_detail == 4


# ----------------------------------------------------------------------
# The jobs
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


def _run(traced, *, max_task_detail=256, mode="forced", faults=None, **runner_kwargs):
    """A fresh cluster, input and index per call; ``traced`` runs the job
    with a live session and keeps every event its ``finish()`` published."""
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

    session = obs = None
    seen = []
    if traced:
        session = LiveSession()
        session.bus.subscribe(seen.append)
        obs = Observability(max_task_detail=max_task_detail, bus=session.bus)
    if faults is not None and faults.lookup_failure_rate:
        kv.set_fault_plan(faults, RETRY)
    runner = EFindRunner(cluster, dfs, obs=obs, fault_plan=faults, **runner_kwargs)
    run_kwargs = (
        {"mode": "dynamic"}
        if mode == "dynamic"
        else {"mode": "forced", "forced_strategy": Strategy.CACHE}
    )
    result = runner.run(job, **run_kwargs)
    if traced:
        session.finish()
    return result, obs, session, seen


def _slow_host():
    return FaultPlan(seed=7, straggler_factors=SLOW)


# Name -> keyword arguments of ``_run``, built afresh for each run: fault
# plans and reuse stores carry state.
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
    "detail-overflow": lambda: dict(max_task_detail=8, batch_size=64),
    "lookup-retries-reuse": lambda: dict(
        faults=FaultPlan(seed=11, lookup_failure_rate=0.05), reuse=ReuseStore()
    ),
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def pair(request, tmp_path_factory):
    """(name, the traced run, its export's paths, an untraced twin)."""
    name = request.param
    traced = _run(True, **SCENARIOS[name]())
    _, obs, session, _ = traced
    paths = obs.export(
        str(tmp_path_factory.mktemp(name)), name, alerts=session.alert_rows()
    )
    return name, traced, paths, _run(False, **SCENARIOS[name]())


def _on_grid(item, start, end):
    """A tracer record as the export must write it and the loader read
    it back."""
    row = (
        item.name,
        item.cat,
        item.track,
        item.depth,
        json.loads(json.dumps(dict(item.args, depth=item.depth))),
        round(start * US, 3) / US,
    )
    if end is None:
        return row
    return row + (round(max(0.0, end - start) * US, 3) / US,)


def _loaded(row, span):
    out = (row["name"], row["cat"], row["track"], row["depth"], row["args"], row["start"])
    return out + (row["dur"],) if span else out


def _replayed(paths):
    artifact = load_one(paths["trace"])
    session = LiveSession()
    seen = []
    session.bus.subscribe(seen.append)
    replay(session, events_from_artifacts(artifact))
    return session, seen


def _primary(events):
    """The span and counter events -- the ones that drive the samples,
    in their publish order -- as an export carries them: a span's
    ``depth`` among its args, payloads through ``json``."""
    out = []
    for e in events:
        if e.kind not in (busmod.KIND_SPAN, busmod.KIND_COUNTERS):
            continue
        payload = e.payload
        if e.kind == busmod.KIND_SPAN:
            payload = dict(payload, args=dict(payload["args"], depth=payload["depth"]))
        out.append(tuple(e)[1:-1] + (json.loads(json.dumps(payload)),))
    return out


class TestAgainstPerSpanOracle:
    def test_scenario_exercises_what_it_names(self, pair):
        name, (result, obs, _, _), _, _ = pair
        spans = obs.tracer.spans
        totals = [s.args["op_totals"] for s in spans if s.name == "task"]
        assert any("lookup" in t or "lookup.batch" in t for t in totals)
        if name == "plain-dynamic":
            assert result.audit  # Algorithm 1 ran
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
        _, (traced, *_), _, (untraced, *_) = pair
        assert traced.sim_time == untraced.sim_time
        assert traced.counters.to_dict() == untraced.counters.to_dict()
        assert sorted(traced.output) == sorted(untraced.output)

    def test_tracer_contents(self, pair):
        _, (_, obs, _, _), paths, _ = pair
        artifact = load_one(paths["trace"])
        tracer = obs.tracer
        assert [_loaded(r, True) for r in artifact.spans] == [
            _on_grid(s, s.start, s.end) for s in tracer.spans
        ]
        assert [_loaded(r, False) for r in artifact.instants] == [
            _on_grid(i, i.ts, None) for i in tracer.instants
        ]
        assert artifact.dropped_detail == tracer.dropped_detail

    def test_bus_event_sequence(self, pair):
        _, (*_, seen), paths, _ = pair
        assert [e.seq for e in seen] == list(range(len(seen)))
        _, replayed = _replayed(paths)
        assert _primary(replayed) == _primary(seen)
        assert len(replayed) == len(seen)

    def test_counters_event_before_each_task_span(self, pair):
        """A live run's task spans carry their counter deltas, and the
        session publishes them as a counters event just before the span."""
        _, (_, obs, _, seen), _, _ = pair
        tasks = [s for s in obs.tracer.spans if s.name == "task"]
        assert tasks and all(isinstance(s.args.get("counters"), dict) for s in tasks)
        before = [
            (prev, event)
            for prev, event in zip(seen, seen[1:])
            if event.kind == busmod.KIND_SPAN and event.name == "task"
        ]
        assert len(before) == len(tasks)
        for prev, event in before:
            assert prev.kind == busmod.KIND_COUNTERS
            assert prev.payload["deltas"] is event.payload["args"]["counters"]
            assert (prev.start, prev.ts) == (event.start, event.ts)

    def test_samples_alerts_and_snapshot(self, pair):
        _, (_, _, live, _), paths, _ = pair
        replayed, _ = _replayed(paths)
        assert replayed.aggregators.samples == live.aggregators.samples
        assert replayed.alert_rows() == live.alert_rows()
        assert replayed.snapshot() == live.snapshot()

    def test_replay_of_the_export_reproduces_recorded_alerts(self, pair, tmp_path):
        _, (_, _, session, _), paths, _ = pair
        with open(paths["alerts"], "rb") as fh:
            recorded = fh.read()
        artifact = load_one(paths["trace"])
        replayed = LiveSession()
        replay(replayed, events_from_artifacts(artifact))
        replayed.export_alerts(str(tmp_path / "replayed.jsonl"))
        assert (tmp_path / "replayed.jsonl").read_bytes() == recorded
        if session.alert_rows():
            assert "matches recorded alerts.jsonl: yes" in render_replay(artifact)[-1]


def test_straggler_scenario_alerts():
    """At least one scenario must produce a non-empty alert timeline,
    or the alert comparisons above compare nothing."""
    _, _, session, _ = _run(True, faults=_slow_host())
    assert any(r["rule"] == "wave-straggler" for r in session.alert_rows())
