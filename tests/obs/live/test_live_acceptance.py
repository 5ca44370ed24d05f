"""The PR's live-telemetry acceptance criteria, pinned as tests:

* a traced+live run with one x4-slow host fires the ``wave-straggler``
  SLO alert, and its firing window overlaps the slow host's
  critical-path segments;
* the same workload on a clean cluster fires zero alerts;
* both live runs are bit-identical (simulated time, counters, outputs)
  to their live-off twins -- the session is purely passive.
"""

import random

import pytest

from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer
from repro.obs import Observability
from repro.obs.live import LiveSession
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan

SLOW_HOST = "node05"


class _CityOp(IndexOperator):
    def pre_process(self, key, value, index_input):
        user, payload = value
        index_input.put(0, user)
        return key, payload

    def post_process(self, key, value, index_output, collector):
        cities = index_output.get(0).get_all()
        collector.collect(cities[0] if cities else "unknown", value)


def _run(slow: bool, live: bool):
    """One forced-Cache run; a fresh environment per call so runs are
    fully independent."""
    cluster = Cluster(num_nodes=12, map_slots_per_node=2, reduce_slots_per_node=2)
    dfs = DistributedFileSystem(cluster, block_size=32 * 1024)
    rng = random.Random(13)
    records = [
        (i, (f"user{rng.randrange(400):04d}", "x" * 150)) for i in range(8000)
    ]
    dfs.write("/in/events", records)
    kv = DistributedKVStore("profiles", cluster, service_time=20e-3)
    for u in range(400):
        kv.put_unique(f"user{u:04d}", f"city{u % 25:02d}")
    job = IndexJobConf("live-acc")
    job.set_input_paths("/in/events").set_output_path("/out/live-acc")
    job.add_head_index_operator(_CityOp("city-op").add_index(IndexAccessor(kv)))
    job.set_mapper(FnMapper(lambda k, v: [(k, v)], "ident"))
    job.set_reducer(
        FnReducer(lambda k, vs: [(k, len(vs))], "count"), num_reduce_tasks=8
    )
    session = LiveSession() if live else None
    obs = Observability(bus=session.bus if session else None)
    runner = EFindRunner(
        cluster,
        dfs,
        fault_plan=(
            FaultPlan(seed=7, straggler_factors={SLOW_HOST: 4.0})
            if slow
            else None
        ),
        obs=obs,
    )
    result = runner.run(job, mode="forced", forced_strategy=Strategy.CACHE)
    if session is not None:
        session.finish()
    return result, obs, session


@pytest.fixture(scope="module")
def slow_live():
    return _run(slow=True, live=True)


class TestSlowHostFiresStragglerSlo:
    def test_alert_fires_with_evidence(self, slow_live):
        _result, _obs, session = slow_live
        straggler = [
            a for a in session.alert_rows() if a["rule"] == "wave-straggler"
        ]
        assert straggler, "x4-slow host must trip the straggler SLO"
        head = straggler[0]
        assert head["severity"] == "warning"
        assert head["metric"] == "straggler_ratio"
        assert head["peak"] >= 2.5
        assert head["evidence"][0]["value"] == pytest.approx(head["peak"])
        assert head["detail"]["kind"] == "map"

    def test_firing_window_overlaps_slow_host_critical_path(
        self, slow_live, tmp_path
    ):
        from repro.obs.analysis import critical_path as cp
        from repro.obs.analysis.loader import load_one

        result, obs, session = slow_live
        paths = obs.export(str(tmp_path), "slow", alerts=session.alert_rows())
        artifact = load_one(paths["trace"])
        (path,) = cp.critical_paths(artifact.spans, alerts=artifact.alert_rows)
        hit = [
            seg
            for seg in path.segments
            if seg.kind == "task"
            and any(a.startswith("wave-straggler") for a in seg.alerts)
        ]
        assert hit, "no critical-path task segment overlaps the alert window"
        # The overlapped segments are the slow host's: on an otherwise
        # uniform wave the critical path runs through the x4 tasks, and
        # each annotated segment must be its wave's slowest.
        tasks = [s for s in artifact.spans if s["name"] == "task"]
        for seg in hit:
            peers = [
                t for t in tasks
                if t["args"].get("kind") == seg.phase
                and t["args"].get("wave") == seg.wave
            ]
            slowest = max(peers, key=lambda t: t["dur"])
            assert seg.name == slowest["args"]["task"]

    def test_live_run_is_bit_identical_to_live_off_twin(self, slow_live):
        live_result, _obs, session = slow_live
        off_result, _off_obs, _none = _run(slow=True, live=False)
        assert session.alert_rows()  # the fold saw the run
        assert live_result.sim_time == off_result.sim_time
        assert live_result.counters.to_dict() == off_result.counters.to_dict()
        assert sorted(live_result.output) == sorted(off_result.output)


class TestCleanClusterStaysQuiet:
    def test_zero_alerts_and_bit_identity(self):
        live_result, _obs, session = _run(slow=False, live=True)
        assert session.alert_rows() == []
        off_result, _off_obs, _none = _run(slow=False, live=False)
        assert live_result.sim_time == off_result.sim_time
        assert live_result.counters.to_dict() == off_result.counters.to_dict()
        assert sorted(live_result.output) == sorted(off_result.output)
