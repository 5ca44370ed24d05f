"""Tests for the EXPLAIN facility."""

import pytest

from repro.core.costmodel import Strategy
from repro.core.explain import explain
from repro.core.optimizer import forced_plan


class TestExplain:
    def test_requires_plan_or_runner(self, efind_env):
        with pytest.raises(ValueError):
            explain(efind_env.make_job("e1"))

    def test_baseline_plan_single_stage(self, efind_env):
        job = efind_env.make_job("e2")
        plan = forced_plan(job.operator_specs(), Strategy.BASELINE)
        text = explain(job, plan=plan, cluster=efind_env.cluster)
        assert "1 MapReduce job(s)" in text
        assert "baseline" in text
        assert "profiles" in text  # the index name appears

    def test_repart_plan_two_stages(self, efind_env):
        job = efind_env.make_job("e3")
        plan = forced_plan(job.operator_specs(), Strategy.REPART, ["head0"])
        text = explain(job, plan=plan, cluster=efind_env.cluster)
        assert "2 MapReduce job(s)" in text
        assert "shuffle job" in text
        assert "re-partitioning" in text

    def test_idxloc_mentions_pinning(self, efind_env):
        job = efind_env.make_job("e4")
        plan = forced_plan(job.operator_specs(), Strategy.IDXLOC, ["head0"])
        text = explain(job, plan=plan, cluster=efind_env.cluster)
        assert "pinned to index-partition replica hosts" in text
        assert "one file per index partition" in text

    def test_runner_mode_uses_static_plan(self, efind_env):
        runner = efind_env.runner()
        runner.run(
            efind_env.make_job("e5-prof"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        text = explain(efind_env.make_job("e5"), runner=runner)
        assert "estimated cost" in text

    def test_non_idempotent_flagged(self, efind_env):
        from repro.core.accessor import IndexAccessor

        class Volatile(IndexAccessor):
            idempotent = False

        job = efind_env.make_job("e6")
        job.head_operators[0].accessors[0] = Volatile(efind_env.kv)
        plan = forced_plan(job.operator_specs(), Strategy.BASELINE)
        text = explain(job, plan=plan, cluster=efind_env.cluster)
        assert "non-idempotent" in text

    def test_all_placements_listed(self, efind_env):
        job = efind_env.make_job("e7", placement="tail")
        plan = forced_plan(job.operator_specs(), Strategy.BASELINE)
        text = explain(job, plan=plan, cluster=efind_env.cluster)
        assert "[tail]" in text


def runtime_line(text, group):
    (line,) = [ln for ln in text.splitlines() if ln.startswith(f"  {group}.*:")]
    return line


class TestExplainAnalyze:
    """The runtime section lists every feature's counter group."""

    def test_reuse_warm_run_shows_reuse_line(self, efind_env):
        from repro.core.reuse import ReuseStore

        runner = efind_env.runner(reuse=ReuseStore())
        for name in ("ea-cold", "ea-warm"):
            result = runner.run(
                efind_env.make_job(name), mode="forced", forced_strategy=Strategy.CACHE
            )
        text = explain(efind_env.make_job("ea"), runner=runner, result=result)
        assert "hits=" in runtime_line(text, "reuse")
        assert runtime_line(text, "spec") == "  spec.*: none"

    def test_spec_routed_run_shows_spec_and_route_lines(self, efind_env):
        from repro.simcluster.faults import FaultPlan

        slow = efind_env.cluster.nodes[1].hostname
        runner = efind_env.runner(
            fault_plan=FaultPlan(seed=7, straggler_factors={slow: 4.0}),
            batch_size=16,
            speculation_factor=1.5,
            route_policy="least-loaded",
        )
        result = runner.run(
            efind_env.make_job("ea-spec"), mode="forced", forced_strategy=Strategy.CACHE
        )
        text = explain(efind_env.make_job("ea"), runner=runner, result=result)
        assert "candidates=" in runtime_line(text, "spec")
        assert "keys=" in runtime_line(text, "route")
        # mean_fill comes from the shared derivation, not a private copy
        assert "mean_fill=" in runtime_line(text, "batch")
