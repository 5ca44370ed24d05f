"""Round trips of the span path: record, export, load, fold.

A traced run's spans exist in two forms: the tracer's records and the
exported artifacts; a live session folds the first into SLO samples at
``finish()``, ``python -m repro.obs live`` folds the second. Every job
below runs once, traced and live, and the forms are held to oracles
that share no code with the path under test:

* per span, the export grid -- plain arithmetic on the tracer's record
  (microseconds, three decimals, args through ``json``): the rows loaded
  back from the export must equal it, in tracer order;
* per run, the two folds -- :func:`repro.obs.live.samples` over the
  run's exported artifacts must reproduce the rows, sample stream and
  alert rows of the fold over the in-memory recording, and both must
  equal a golden made by an earlier, independent implementation;
* per run, an untraced twin of the job: same output, counters and
  simulated time.

The jobs cover forced Cache with reuse, Dynamic, faults (crashed
attempts, a straggling host, retried lookups, speculation) and B = 64
with the per-task detail cap hit.
"""

import hashlib
import json
import os
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
from repro.obs.live import LiveSession, artifact_rows, recording_rows, samples
from repro.obs.trace import Instant, Span, TaskTraceBuffer, Tracer
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan, RetryPolicy, TaskCrash

US = 1_000_000

#: Per scenario, the sample stream and alert rows an earlier, independent
#: implementation (a publish/subscribe replay into rolling aggregators)
#: produced: the sample count, a sha256 of ``repr(samples)`` and the
#: exact alert rows.
GOLDEN = os.path.join(os.path.dirname(__file__), "parity_golden.json")


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
    with a live session, finished."""
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
    if traced:
        session = LiveSession()
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
    return result, obs, session


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
    _, obs, session = traced
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


def _golden(name):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)[name]


def _digest(stream):
    return len(stream), hashlib.sha256(repr(stream).encode()).hexdigest()


class TestAgainstPerSpanOracle:
    def test_scenario_exercises_what_it_names(self, pair):
        name, (result, obs, _), _, _ = pair
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
        _, (_, obs, _), paths, _ = pair
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
        """The rows a session folds from the tracers on its ``bus`` are
        the export's rows, in the same order: a span's ``depth`` among
        its args, args through ``json``."""
        _, (_, obs, _), paths, _ = pair
        recorded = [
            (name, cat, start, end, json.loads(json.dumps(dict(args, depth=s.depth))))
            for (name, cat, start, end, args), s in zip(
                recording_rows(obs.tracer), obs.tracer.spans
            )
        ]
        assert len(recorded) == len(obs.tracer.spans)
        assert recorded == list(artifact_rows(load_one(paths["trace"])))

    def test_counters_event_before_each_task_span(self, pair):
        """A live run's task spans carry their counter deltas, and the
        fold turns them into samples just before the span's own
        throughput sample, at the same time."""
        _, (_, obs, _), _, _ = pair
        tasks = [s for s in obs.tracer.spans if s.name == "task"]
        assert tasks and all(isinstance(s.args.get("counters"), dict) for s in tasks)
        stream = samples(recording_rows(obs.tracer))
        counted = ("reuse_hit_ratio", "fault_retry_rate", "build_progress")
        for i, (metric, ts, _, _) in enumerate(stream):
            if metric in counted:
                after = next(s for s in stream[i + 1:] if s[0] not in counted)
                assert after[0].startswith("throughput.") and after[1] == ts

    def test_samples_alerts_and_snapshot(self, pair):
        """The fold over the export reproduces the fold over the
        recording, and both match the golden snapshot."""
        name, (_, obs, live), paths, _ = pair
        artifact = load_one(paths["trace"])
        stream = samples(artifact_rows(artifact))
        assert stream == samples(recording_rows(obs.tracer))
        golden = _golden(name)
        assert _digest(stream) == (golden["samples"], golden["sha256"])
        assert artifact.alert_rows == live.alert_rows() == golden["alert_rows"]

    def test_replay_of_the_export_reproduces_recorded_alerts(self, pair, tmp_path):
        from repro.obs.__main__ import main

        _, (_, _, session), paths, _ = pair
        with open(paths["alerts"], "rb") as fh:
            recorded = fh.read()
        replayed = LiveSession()
        replayed.engine.feed(samples(artifact_rows(load_one(paths["trace"]))))
        replayed.export_alerts(str(tmp_path / "replayed.jsonl"))
        assert (tmp_path / "replayed.jsonl").read_bytes() == recorded
        assert main(["live", paths["trace"]]) == 0


def test_matches_the_golden(pair):
    """The samples and alerts of every scenario equal what the earlier
    implementation produced, so the fold is checked against an
    independent output, not only against itself."""
    name, (_, obs, session), _, _ = pair
    golden = _golden(name)
    stream = samples(recording_rows(obs.tracer))
    assert _digest(stream) == (golden["samples"], golden["sha256"])
    assert session.alert_rows() == golden["alert_rows"]


def test_straggler_scenario_alerts():
    """At least one scenario must produce a non-empty alert timeline,
    or the alert comparisons above compare nothing."""
    _, _, session = _run(True, faults=_slow_host())
    assert any(r["rule"] == "wave-straggler" for r in session.alert_rows())
