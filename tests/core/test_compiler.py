"""Unit tests for the plan compiler (stage structure + boundaries)."""

import pytest

from repro.common.errors import PlanningError
from repro.core.compiler import choose_boundary, compile_plan
from repro.core.costmodel import Placement, Strategy
from repro.core.optimizer import forced_plan
from repro.core.statistics import OperatorStats
from repro.core.strategy import (
    CarrierMaterializeReducer,
    GroupLookupReducer,
    OperatorStage,
    SchemePartitioner,
)


def specs_of(job):
    return job.operator_specs()


class TestChooseBoundary:
    def test_idxloc_always_pre(self):
        stats = OperatorStats(spre=1, sidx=0.1, spost=0.01)
        assert choose_boundary(Strategy.IDXLOC, stats, True) == "pre"

    def test_default_without_stats(self):
        assert choose_boundary(Strategy.REPART, None, True) == "idx"

    def test_min_size_wins(self):
        assert (
            choose_boundary(
                Strategy.REPART, OperatorStats(spre=10, sidx=99, spost=99), True
            )
            == "pre"
        )
        assert (
            choose_boundary(
                Strategy.REPART, OperatorStats(spre=99, sidx=10, spost=99), True
            )
            == "idx"
        )
        assert (
            choose_boundary(
                Strategy.REPART, OperatorStats(spre=99, sidx=99, spost=10), True
            )
            == "post"
        )

    def test_post_needs_last_index(self):
        stats = OperatorStats(spre=99, sidx=99, spost=10)
        assert choose_boundary(Strategy.REPART, stats, False) in ("pre", "idx")

    def test_override_respected(self):
        stats = OperatorStats(spre=1, sidx=99, spost=99)
        assert choose_boundary(Strategy.REPART, stats, True, override="idx") == "idx"

    def test_override_post_requires_last(self):
        with pytest.raises(PlanningError):
            choose_boundary(Strategy.REPART, None, False, override="post")


class TestStageStructure:
    def test_baseline_single_stage(self, efind_env):
        job = efind_env.make_job("c1")
        plan = forced_plan(specs_of(job), Strategy.BASELINE)
        stages = compile_plan(job, plan, efind_env.cluster)
        assert len(stages) == 1
        conf = stages[0].conf
        # One stage runs the whole operator: no carrier between phases.
        stage = conf.map_chain[0]
        assert isinstance(stage, OperatorStage)
        assert stage.phases == ["pre[head0]", "idx[head0.0:base]", "post[head0]"]
        assert stage.name == " -> ".join(stage.phases)
        assert conf.reducer is not None

    def test_cache_single_stage_with_cache_mode(self, efind_env):
        job = efind_env.make_job("c2")
        plan = forced_plan(specs_of(job), Strategy.CACHE)
        stages = compile_plan(job, plan, efind_env.cluster)
        stage = stages[0].conf.map_chain[0]
        assert stage.phases == ["pre[head0]", "idx[head0.0:cache]", "post[head0]"]
        ((pipeline, record_sidx),) = stage.lookups
        assert pipeline.use_cache and record_sidx

    def test_repart_head_two_stages(self, efind_env):
        job = efind_env.make_job("c3")
        plan = forced_plan(specs_of(job), Strategy.REPART, ["head0"])
        stages = compile_plan(job, plan, efind_env.cluster)
        assert len(stages) == 2
        assert stages[0].is_shuffle
        assert isinstance(stages[0].conf.reducer, GroupLookupReducer)

    def test_repart_pre_boundary_materializes(self, efind_env):
        job = efind_env.make_job("c4")
        plan = forced_plan(specs_of(job), Strategy.REPART, ["head0"])
        stages = compile_plan(
            job, plan, efind_env.cluster, boundary_override="pre"
        )
        assert isinstance(stages[0].conf.reducer, CarrierMaterializeReducer)
        lookup_names = [fn.name for fn in stages[1].conf.map_chain]
        assert any(":repart]" in n for n in lookup_names)

    def test_repart_post_boundary_pulls_post(self, efind_env):
        job = efind_env.make_job("c5")
        plan = forced_plan(specs_of(job), Strategy.REPART, ["head0"])
        stages = compile_plan(
            job, plan, efind_env.cluster, boundary_override="post"
        )
        post_names = [fn.name for fn in stages[0].conf.reduce_post_chain]
        assert any(n.startswith("post[") for n in post_names)
        # second stage must not re-run postProcess
        assert not any(
            fn.name.startswith("post[") for fn in stages[1].conf.map_chain
        )

    def test_idxloc_stage_uses_scheme_partitioner(self, efind_env):
        job = efind_env.make_job("c6")
        plan = forced_plan(specs_of(job), Strategy.IDXLOC, ["head0"])
        stages = compile_plan(job, plan, efind_env.cluster)
        shuffle = stages[0].conf
        assert isinstance(shuffle.partitioner, SchemePartitioner)
        assert shuffle.output_per_partition
        assert shuffle.num_reduce_tasks == (
            efind_env.kv.partition_scheme.num_partitions
        )
        assert stages[1].read_constraint is efind_env.kv.partition_scheme

    def test_tail_repart_three_stages(self, efind_env):
        job = efind_env.make_job("c7", placement="tail")
        plan = forced_plan(specs_of(job), Strategy.REPART, ["tail0"])
        stages = compile_plan(job, plan, efind_env.cluster)
        # main (map+reduce+pre) | shuffle | remainder
        assert len(stages) >= 2
        assert stages[0].conf.reducer is job.reducer

    def test_body_repart_splits_around_reduce(self, efind_env):
        job = efind_env.make_job("c8", placement="body")
        plan = forced_plan(specs_of(job), Strategy.REPART, ["body0"])
        stages = compile_plan(job, plan, efind_env.cluster)
        assert len(stages) == 2
        # the user reducer runs in the *final* stage
        assert stages[-1].conf.reducer is job.reducer

    def test_start_at_reduce_skips_map_side(self, efind_env):
        job = efind_env.make_job("c9", placement="tail")
        plan = forced_plan(specs_of(job), Strategy.BASELINE)
        stages = compile_plan(job, plan, efind_env.cluster, start_at="reduce")
        assert len(stages) == 1
        assert stages[0].conf.map_chain == []
        assert stages[0].conf.reducer is job.reducer

    def test_unknown_start_at(self, efind_env):
        job = efind_env.make_job("c10")
        plan = forced_plan(specs_of(job), Strategy.BASELINE)
        with pytest.raises(PlanningError):
            compile_plan(job, plan, efind_env.cluster, start_at="shuffle")
