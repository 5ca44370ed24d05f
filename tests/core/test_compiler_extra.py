"""Additional compiler coverage: Smap metering, multiple operators,
mapperless jobs."""

import pytest

from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.optimizer import forced_plan
from repro.core.compiler import compile_plan
from repro.core.statistics import OperatorStatsAccumulator
from repro.core.strategy import OperatorStage
from repro.indices.base import MappingIndex
from repro.mapreduce.api import FnMapper, FnReducer
from tests.conftest import UserCityOperator


class TestSmapMetering:
    def test_map_output_size_lands_in_head_op_stats(self, efind_env):
        job = efind_env.make_job("smap1")
        runner = efind_env.runner()
        res = runner.run(job, mode="forced", forced_strategy=Strategy.BASELINE)
        stats = res.stats["head0"]
        assert stats.smap > 0
        # the identity mapper neither grows nor shrinks records much
        assert stats.smap == pytest.approx(stats.spost, rel=0.5)

    def test_no_meters_without_head_ops(self, efind_env):
        job = efind_env.make_job("smap2", placement="body")
        plan = forced_plan(job.operator_specs(), Strategy.BASELINE)
        registry = {
            "body0": OperatorStatsAccumulator("body0", 1, 12),
        }
        stages = compile_plan(
            job, plan, efind_env.cluster, stats_registry=registry
        )
        names = [fn.name for fn in stages[0].conf.map_chain]
        assert "smap-in" not in names and "smap-out" not in names

    def test_meters_present_with_head_ops(self, efind_env):
        job = efind_env.make_job("smap3")
        plan = forced_plan(job.operator_specs(), Strategy.BASELINE)
        registry = {"head0": OperatorStatsAccumulator("head0", 1, 12)}
        stages = compile_plan(
            job, plan, efind_env.cluster, stats_registry=registry
        )
        names = [fn.name for fn in stages[0].conf.map_chain]
        assert "smap-in" in names and "smap-out" in names


class TestMultipleOperators:
    def _two_head_job(self, env, name):
        job = env.make_job(name)
        second = UserCityOperator("second").add_index(IndexAccessor(env.kv))
        # The second head operator consumes the first's output: its
        # pre_process must accept (city, payload) records.

        class CityPassthrough(IndexOperator):
            def pre_process(self, key, value, index_input):
                index_input.put(0, "user0000")
                return key, value

            def post_process(self, key, value, index_output, collector):
                collector.collect(key, value)

        job.head_operators.append(
            CityPassthrough("pass").add_index(IndexAccessor(env.kv))
        )
        return job

    def test_chained_head_ops_compile_in_order(self, efind_env):
        job = self._two_head_job(efind_env, "multi1")
        plan = forced_plan(job.operator_specs(), Strategy.BASELINE)
        stages = compile_plan(job, plan, efind_env.cluster)
        operators = [
            fn for fn in stages[0].conf.map_chain if isinstance(fn, OperatorStage)
        ]
        # One stage per operator, each from its pre to its post phase:
        # post[head0] runs before pre[head1].
        assert [stage.phases for stage in operators] == [
            ["pre[head0]", "idx[head0.0:base]", "post[head0]"],
            ["pre[head1]", "idx[head1.0:base]", "post[head1]"],
        ]

    def test_chained_head_ops_run(self, efind_env):
        job = self._two_head_job(efind_env, "multi2")
        res = efind_env.runner().run(
            job, mode="forced", forced_strategy=Strategy.CACHE
        )
        assert sum(v for _k, v in res.output) == efind_env.num_records


class TestMapperlessJob:
    def test_head_op_without_mapper(self, efind_env):
        job = IndexJobConf("nomap")
        job.set_input_paths("/in/events").set_output_path("/out/nomap")
        job.add_head_index_operator(
            UserCityOperator("op").add_index(IndexAccessor(efind_env.kv))
        )
        job.set_reducer(
            FnReducer(lambda k, vs: [(k, len(vs))], "c"), num_reduce_tasks=4
        )
        res = efind_env.runner().run(
            job, mode="forced", forced_strategy=Strategy.CACHE
        )
        assert sum(v for _k, v in res.output) == efind_env.num_records

    def test_map_only_efind_job(self, efind_env):
        job = IndexJobConf("maponly")
        job.set_input_paths("/in/events").set_output_path("/out/maponly")
        job.add_head_index_operator(
            UserCityOperator("op").add_index(IndexAccessor(efind_env.kv))
        )
        job.set_mapper(FnMapper(lambda k, v: [(k, v)], "i"))
        res = efind_env.runner().run(
            job, mode="forced", forced_strategy=Strategy.CACHE
        )
        assert len(res.output) == efind_env.num_records

    def test_map_only_with_repart(self, efind_env):
        job = IndexJobConf("maponly-r")
        job.set_input_paths("/in/events").set_output_path("/out/maponly-r")
        job.add_head_index_operator(
            UserCityOperator("op").add_index(IndexAccessor(efind_env.kv))
        )
        job.set_mapper(FnMapper(lambda k, v: [(k, v)], "i"))
        res = efind_env.runner().run(
            job,
            mode="forced",
            forced_strategy=Strategy.REPART,
            extra_job_targets=["head0"],
        )
        assert len(res.output) == efind_env.num_records
        assert res.num_stages == 2
