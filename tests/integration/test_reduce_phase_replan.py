"""Deterministic exercise of the Figure 10(b) path: a plan change in
the middle of the Reduce phase, keeping completed reduce tasks' outputs
and re-reducing the remaining partitions under the new (tail-operator)
plan.

The tail lookup must be *many-to-one* (here: group -> city) for a tail
plan change to pay off -- if every reduce group probes a distinct key
there is nothing to deduplicate and declining to replan is correct.
"""

import random
from collections import Counter

import pytest

from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.runner import EFindRunner
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer

NUM_GROUPS = 3_000
NUM_CITIES = 25


def city_of(group_key: str) -> str:
    return f"city{int(group_key[3:]) % NUM_CITIES:02d}"


class CityRegionTailOperator(IndexOperator):
    """Tail operator: look up each group's *city* (many groups share
    one city -> heavy duplicate tail keys)."""

    def pre_process(self, key, value, index_input):
        index_input.put(0, city_of(key))
        return key, value

    def post_process(self, key, value, index_output, collector):
        regions = index_output.get(0).get_all()
        collector.collect((regions[0] if regions else "?", key), value)


@pytest.fixture(scope="module")
def env():
    from repro.dfs.filesystem import DistributedFileSystem
    from repro.simcluster.cluster import Cluster
    from repro.simcluster.timemodel import TimeModel

    cluster = Cluster(
        num_nodes=12,
        map_slots_per_node=2,
        reduce_slots_per_node=2,
        time_model=TimeModel(job_startup_time=0.5, task_startup_time=0.03),
    )
    dfs = DistributedFileSystem(cluster, block_size=32 * 1024)
    rng = random.Random(5)
    num_records = 12_000
    records = [
        (i, (f"grp{rng.randrange(NUM_GROUPS):04d}", "x" * 40))
        for i in range(num_records)
    ]
    dfs.write("/in/groups", records)
    kv = DistributedKVStore("city-regions", cluster, service_time=40e-3)
    for c in range(NUM_CITIES):
        kv.put_unique(f"city{c:02d}", f"region{c % 5}")
    return cluster, dfs, kv, num_records


def make_job(env, name):
    cluster, dfs, kv, *_ = env
    job = IndexJobConf(name)
    job.set_input_paths("/in/groups").set_output_path(f"/out/{name}")
    job.set_mapper(FnMapper(lambda k, v: [(v[0], 1)], "by-group"))
    job.set_reducer(
        FnReducer(lambda k, vs: [(k, sum(vs))], "sum"),
        num_reduce_tasks=48,  # two reduce waves over 24 slots
    )
    job.add_tail_index_operator(
        CityRegionTailOperator("city-tail").add_index(IndexAccessor(kv))
    )
    return job


def dynamic_runner(env, obs=None):
    cluster, dfs, *_ = env
    return EFindRunner(cluster, dfs, plan_change_overhead=0.2, obs=obs)


class TestMidReduceReplan:
    def test_replan_fires_in_reduce_phase(self, env):
        res = dynamic_runner(env).run(make_job(env, "rr1"), mode="dynamic")
        assert res.replanned
        assert res.replan_phase == "reduce"
        assert res.stage_results[0].aborted_phase == "reduce"

    def test_output_matches_baseline(self, env):
        cluster, dfs, _kv, num_records = env
        base = EFindRunner(cluster, dfs).run(
            make_job(env, "rr2-base"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        dyn = dynamic_runner(env).run(make_job(env, "rr2"), mode="dynamic")
        assert dyn.replanned and dyn.replan_phase == "reduce"
        assert sorted(dyn.output) == sorted(base.output)
        assert sum(v for _k, v in dyn.output) == num_records

    def test_completed_partitions_not_reprocessed(self, env):
        """The aborted stage's completed reduce outputs appear verbatim
        in the final output (free reuse, Figure 10(b))."""
        res = dynamic_runner(env).run(make_job(env, "rr3"), mode="dynamic")
        assert res.replanned
        completed = res.stage_results[0].output
        assert completed  # some partitions finished under the old plan
        final = set(res.output)
        for record in completed:
            assert record in final

    def test_final_output_persisted(self, env):
        cluster, dfs, *_ = env
        res = dynamic_runner(env).run(make_job(env, "rr4"), mode="dynamic")
        assert sorted(dfs.read("/out/rr4"), key=repr) == sorted(
            res.output, key=repr
        )

    def test_run_leaves_only_its_output(self, env):
        """Intermediate data dies with its consumer (DESIGN.md 5.12): the
        resume has read the pending buckets, and no ``/_efind`` file of
        the resumed plan outlives the run."""
        cluster, dfs, *_ = env
        res = dynamic_runner(env).run(make_job(env, "rr-lifetime"), mode="dynamic")
        assert res.replanned and res.replan_phase == "reduce"
        groups = Counter(group for _, (group, _) in dfs.read("/in/groups"))
        expected = sorted(
            ((f"region{int(city_of(g)[4:]) % 5}", g), n) for g, n in groups.items()
        )
        assert sorted(res.output) == expected
        assert dfs.listdir("/_efind") == []
        for run in res.stage_results[0].map_runs:
            assert run.buckets == [] and run.bucket_sizes is None

    def test_resumed_stages_cover_remaining_partitions_only(self, env):
        cluster, dfs, _kv, num_records = env
        res = dynamic_runner(env).run(make_job(env, "rr5"), mode="dynamic")
        assert res.replanned
        aborted = res.stage_results[0]
        done = sum(v for _k, v in aborted.output)
        resumed = sum(v for _k, v in res.stage_results[-1].output)
        assert done + resumed == num_records

    def test_audit_log_captures_mid_reduce_replan(self, env):
        """The audit record of the reduce-phase re-plan is complete: a
        ``replan`` verdict with its gate, per-strategy costs, and the
        Figure 10(b) mid-reduce reuse outcome."""
        from repro.obs import Observability
        from repro.obs.audit import VERDICT_REPLAN

        obs = Observability()
        res = dynamic_runner(env, obs=obs).run(
            make_job(env, "rr-audit"), mode="dynamic"
        )
        assert res.replanned and res.replan_phase == "reduce"
        # the result carries this run's records; the log holds them all
        assert res.audit == obs.audit.for_job("rr-audit")
        applied = [r for r in res.audit if r.applied]
        assert len(applied) == 1
        record = applied[0]
        assert record.verdict == VERDICT_REPLAN
        assert record.phase == "reduce"
        assert record.job == "rr-audit"
        assert record.sim_time > 0
        assert record.applied_at >= record.sim_time
        # gate: the tail operator passed with >= 2 reduce-task samples
        entry = next(g for g in record.gate if g["operator"] == "tail0")
        assert entry["stable"] and entry["num_samples"] >= 2
        assert entry["relative_deviation"] <= record.variance_threshold
        # all four Equation 1-4 costs priced for the tail index
        detail = next(
            o for o in record.operators if o["operator"] == "tail0"
        )
        costs = detail["strategies"]["0"]["costs"]
        assert set(costs) == {"base", "cache", "repart", "idxloc", "partial"}
        assert all(c >= 0.0 for c in costs.values())
        samples = detail["stats"]["per_index"]["0"]
        assert samples["theta"] > 1.0  # many groups share one city
        assert samples["tj"] > 0.0
        assert samples["lookups_observed"] > 0
        # the applied change switched the tail strategy and recorded
        # the mid-reduce cutover with completed-partition reuse
        assert record.new_plan != record.current_plan
        assert record.improvement > record.plan_change_cost
        assert record.reuse["cutover"] == "mid-reduce"
        assert record.reuse["reduce_tasks_reused"] > 0
        assert record.reuse["partitions_rerun"] > 0
        assert (
            record.reuse["reduce_tasks_reused"]
            + record.reuse["partitions_rerun"]
            == 48
        )

    def test_audit_records_survive_json_export(self, env):
        """Every record round-trips through the JSONL exporter (inf
        from the <2-sample gate must have been scrubbed)."""
        import json

        from repro.obs import Observability

        obs = Observability()
        dynamic_runner(env, obs=obs).run(make_job(env, "rr-json"), mode="dynamic")
        assert len(obs.audit) >= 1
        for row in obs.audit.to_dicts():
            parsed = json.loads(json.dumps(row, allow_nan=False))
            assert parsed["job"] == "rr-json"

    def test_no_replan_when_tail_keys_unique(self, env):
        """Control: distinct tail keys per group -> nothing to save ->
        EFind correctly keeps the baseline plan."""
        cluster, dfs, *_ = env
        unique_kv = DistributedKVStore("per-group", cluster, service_time=40e-3)
        for g in range(NUM_GROUPS):
            unique_kv.put_unique(f"grp{g:04d}", "payload")

        class PerGroupTail(IndexOperator):
            def pre_process(self, key, value, index_input):
                index_input.put(0, key)
                return key, value

            def post_process(self, key, value, index_output, collector):
                collector.collect(key, value)

        job = IndexJobConf("rr-unique")
        job.set_input_paths("/in/groups").set_output_path("/out/rr-unique")
        job.set_mapper(FnMapper(lambda k, v: [(v[0], 1)], "by-group"))
        job.set_reducer(
            FnReducer(lambda k, vs: [(k, sum(vs))], "sum"), num_reduce_tasks=48
        )
        job.add_tail_index_operator(
            PerGroupTail("pg").add_index(IndexAccessor(unique_kv))
        )
        res = dynamic_runner(env).run(job, mode="dynamic")
        assert not res.replanned
