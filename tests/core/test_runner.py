"""Integration tests for EFindRunner modes and plumbing."""

import pytest

from repro.common.errors import DataFlowError, PlanningError
from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.optimizer import forced_plan
from repro.core.runner import EFindRunner
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer


class TestModes:
    def test_unknown_mode_rejected(self, efind_env):
        with pytest.raises(PlanningError):
            efind_env.runner().run(efind_env.make_job("m1"), mode="magic")

    def test_forced_requires_strategy(self, efind_env):
        with pytest.raises(PlanningError):
            efind_env.runner().run(efind_env.make_job("m2"), mode="forced")

    def test_forced_accepts_string_strategy(self, efind_env):
        res = efind_env.runner().run(
            efind_env.make_job("m3"), mode="forced", forced_strategy="cache"
        )
        assert res.plan.operators["head0"].strategies[0] is Strategy.CACHE

    def test_plan_mode_executes_given_plan(self, efind_env):
        job = efind_env.make_job("m4")
        plan = forced_plan(job.operator_specs(), Strategy.CACHE)
        res = efind_env.runner().run(job, mode="plan", plan=plan)
        assert res.plan is plan

    def test_plan_mode_requires_plan(self, efind_env):
        with pytest.raises(PlanningError):
            efind_env.runner().run(efind_env.make_job("m5"), mode="plan")

    def test_static_without_stats_falls_back_to_baseline(self, efind_env):
        res = efind_env.runner().run(efind_env.make_job("m6"), mode="static")
        assert res.plan.operators["head0"].strategies[0] is Strategy.BASELINE

    def test_static_with_stats_optimizes(self, efind_env):
        runner = efind_env.runner()
        runner.run(
            efind_env.make_job("m7-profile"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        res = runner.run(efind_env.make_job("m7"), mode="static")
        assert res.plan.operators["head0"].strategies[0] is not Strategy.BASELINE


class TestCatalog:
    def test_update_catalog_records_stats(self, efind_env):
        runner = efind_env.runner()
        res = runner.run(
            efind_env.make_job("cat1"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        assert len(runner.catalog) == 1
        assert res.stats["head0"].n1 > 0

    def test_update_catalog_can_be_disabled(self, efind_env):
        runner = efind_env.runner()
        runner.run(
            efind_env.make_job("cat2"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
            update_catalog=False,
        )
        assert len(runner.catalog) == 0

    def test_catalog_shared_across_jobs_by_signature(self, efind_env):
        runner = efind_env.runner()
        runner.run(
            efind_env.make_job("cat3a"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        # A different job using the same operator type + index benefits.
        res = runner.run(efind_env.make_job("cat3b"), mode="static")
        assert res.plan.operators["head0"].strategies[0] is not Strategy.BASELINE


class TestResults:
    def test_output_written_to_dfs(self, efind_env):
        res = efind_env.runner().run(
            efind_env.make_job("r1"), mode="forced", forced_strategy=Strategy.CACHE
        )
        assert sorted(efind_env.dfs.read("/out/r1"), key=repr) == sorted(
            res.output, key=repr
        )

    def test_stage_times_chain(self, efind_env):
        res = efind_env.runner().run(
            efind_env.make_job("r2"),
            mode="forced",
            forced_strategy=Strategy.REPART,
            extra_job_targets=["head0"],
        )
        stages = res.stage_results
        assert len(stages) == 2
        assert stages[1].start_time == pytest.approx(stages[0].end_time)
        assert res.end_time == stages[-1].end_time

    def test_counters_merged_across_stages(self, efind_env):
        res = efind_env.runner().run(
            efind_env.make_job("r3"),
            mode="forced",
            forced_strategy=Strategy.REPART,
            extra_job_targets=["head0"],
        )
        assert res.counters.get("task", "map_input_records") > 0

    def test_start_time_offset(self, efind_env):
        a = efind_env.runner().run(
            efind_env.make_job("r4"), mode="forced", forced_strategy=Strategy.CACHE
        )
        b = efind_env.runner().run(
            efind_env.make_job("r5"),
            mode="forced",
            forced_strategy=Strategy.CACHE,
            start_time=50.0,
        )
        assert b.sim_time == pytest.approx(a.sim_time, rel=0.05)
        assert b.end_time > 50.0

    def test_intermediate_outputs_use_private_paths(self, efind_env):
        res = efind_env.runner().run(
            efind_env.make_job("r6"),
            mode="forced",
            forced_strategy=Strategy.REPART,
            extra_job_targets=["head0"],
        )
        first = res.stage_results[0]
        assert first.output_path.startswith("/_efind/")
        assert res.stage_results[-1].output_path == "/out/r6"


class TestDynamicResume:
    def test_map_resume_preserves_output(self, efind_env):
        base = efind_env.runner().run(
            efind_env.make_job("d1-base"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        dyn = efind_env.runner(plan_change_overhead=0.5).run(
            efind_env.make_job("d1"), mode="dynamic"
        )
        assert dyn.replanned
        assert sorted(dyn.output) == sorted(base.output)

    def test_resume_reuses_completed_map_work(self, efind_env):
        dyn = efind_env.runner(plan_change_overhead=0.5).run(
            efind_env.make_job("d2"), mode="dynamic"
        )
        assert dyn.replanned
        aborted = dyn.stage_results[0]
        assert aborted.aborted_phase == "map"
        processed_after = sum(
            r.input_records
            for s in dyn.stage_results[1:2]
            for r in s.map_runs
        )
        # The resumed stages only read the remaining records.
        already_done = sum(r.input_records for r in aborted.map_runs)
        assert already_done + processed_after == efind_env.num_records

    def test_final_output_written_once(self, efind_env):
        dyn = efind_env.runner(plan_change_overhead=0.5).run(
            efind_env.make_job("d3"), mode="dynamic"
        )
        assert sorted(efind_env.dfs.read("/out/d3"), key=repr) == sorted(
            dyn.output, key=repr
        )


class UnhashableKeyOperator(IndexOperator):
    """Puts a key no dict or set can hold: a list or a dict."""

    def __init__(self, bad_key):
        super().__init__("unhashable-op")
        self.bad_key = bad_key

    def pre_process(self, key, value, index_input):
        index_input.put(0, self.bad_key)
        return key, value


class TestUnhashableLookupKey:
    """An unhashable key dies as a typed ``DataFlowError`` naming the
    index and the key under every strategy -- not as the bare
    ``TypeError`` the shadow cache, the LRU, the index or the shuffle
    grouping would raise."""

    @pytest.mark.parametrize("bad_key", [[1, 2], {1: 2}])
    @pytest.mark.parametrize(
        "mode, strategy",
        [("forced", s) for s in (Strategy.BASELINE, Strategy.CACHE,
                                  Strategy.REPART, Strategy.IDXLOC)]
        + [("dynamic", None)],
    )
    def test_refused_by_name(self, cluster, dfs, bad_key, mode, strategy):
        dfs.write("/in/few", [(i, f"v{i}") for i in range(20)])
        kv = DistributedKVStore("kv", cluster)
        kv.put_unique(1, "one")
        job = IndexJobConf("unhashable")
        job.set_input_paths("/in/few")
        job.set_output_path("/out/unhashable")
        job.set_mapper(FnMapper(lambda k, v: [(k, v)], "ident"))
        job.set_reducer(FnReducer(lambda k, vs: [(k, len(vs))], "count"))
        job.add_head_index_operator(
            UnhashableKeyOperator(bad_key).add_index(IndexAccessor(kv))
        )
        with pytest.raises(DataFlowError, match=r"key .* for index 0 is unhashable"):
            EFindRunner(cluster, dfs).run(job, mode=mode, forced_strategy=strategy)
