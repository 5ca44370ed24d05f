"""Unit + integration tests for adaptive re-optimization (Algorithm 1)."""

import math

import pytest

from repro.core.adaptive import evaluate_replan, relevant_operator_ids
from repro.core.costmodel import CostEnv, Strategy
from repro.core.optimizer import baseline_plan
from repro.core.statistics import (
    IndexSample,
    OperatorStats,
    OperatorStatsAccumulator,
    TaskSample,
)
from repro.obs.audit import (
    VERDICT_REPLAN,
    VERDICT_VARIANCE_GATE,
    AdaptiveAuditLog,
)


def make_registry(job, num_machines=12, samples=4, n1=500, tj=5e-3, miss=1.0):
    registry = {}
    for op_id, (_pl, m) in job.operator_specs().items():
        acc = OperatorStatsAccumulator(op_id, m, num_machines)
        for t in range(samples):
            s = TaskSample(
                task_id=f"t{t}",
                index=[IndexSample() for _ in range(m)],
            )
            s.n1 = n1
            s.s1_bytes = n1 * 40.0
            s.spre_bytes = n1 * 50.0
            s.sidx_bytes = n1 * 70.0
            s.spost_bytes = n1 * 30.0
            s.index[0] = IndexSample(
                nik=n1, sik_bytes=n1 * 8.0, lookups=n1, siv_bytes=n1 * 10.0,
                tj_total=n1 * tj, tj_samples=n1,
                cache_probes=n1, cache_misses=int(n1 * miss),
            )
            acc.add_sample(s)
        # many duplicate keys across tasks
        for k in range(50):
            acc.add_key_to_sketch(0, k)
        registry[op_id] = acc
    return registry


@pytest.fixture
def env():
    return CostEnv(bw=125e6, f=3e-8, t_cache=2e-6, extra_job_overhead=3.0)


class TestRelevantOperators:
    def test_map_phase_selects_head_and_body(self, efind_env):
        job = efind_env.make_job("r1", placement="body")
        assert relevant_operator_ids(job, "map") == ["body0"]
        assert relevant_operator_ids(job, "reduce") == []

    def test_reduce_phase_selects_tail(self, efind_env):
        job = efind_env.make_job("r2", placement="tail")
        assert relevant_operator_ids(job, "map") == []
        assert relevant_operator_ids(job, "reduce") == ["tail0"]


class TestEvaluateReplan:
    def test_replans_when_improvement_large(self, efind_env, env):
        job = efind_env.make_job("e1")
        registry = make_registry(job, tj=5e-3, miss=0.05)
        plan = baseline_plan(job.operator_specs())
        decision = evaluate_replan(job, plan, registry, env, "map")
        assert decision is not None
        assert decision.improvement > 0
        assert decision.new_plan.operators["head0"].strategies[0] is not (
            Strategy.BASELINE
        )

    def test_no_replan_when_nothing_relevant(self, efind_env, env):
        job = efind_env.make_job("e2", placement="tail")
        registry = make_registry(job)
        plan = baseline_plan(job.operator_specs())
        assert evaluate_replan(job, plan, registry, env, "map") is None

    def test_variance_gate_blocks(self, efind_env, env):
        job = efind_env.make_job("e3")
        registry = make_registry(job, tj=5e-3, miss=0.05)
        # make one sample wildly different
        skew = registry["head0"].sample_for("skew")
        skew.n1 = 50_000
        skew.spre_bytes = 50_000 * 50.0
        assert (
            evaluate_replan(
                job, baseline_plan(job.operator_specs()), registry, env, "map",
                variance_threshold=0.05,
            )
            is None
        )

    def test_too_few_samples_blocks(self, efind_env, env):
        job = efind_env.make_job("e4")
        registry = make_registry(job, samples=1)
        assert (
            evaluate_replan(
                job, baseline_plan(job.operator_specs()), registry, env, "map"
            )
            is None
        )

    def test_plan_change_cost_gate(self, efind_env, env):
        job = efind_env.make_job("e5")
        registry = make_registry(job, tj=5e-3, miss=0.05)
        plan = baseline_plan(job.operator_specs())
        cheap = evaluate_replan(job, plan, registry, env, "map", plan_change_cost=0.0)
        assert cheap is not None
        blocked = evaluate_replan(
            job, plan, registry, env, "map",
            plan_change_cost=cheap.improvement + 1.0,
        )
        assert blocked is None

    def test_no_replan_when_plan_already_optimal(self, efind_env, env):
        job = efind_env.make_job("e6")
        registry = make_registry(job, tj=5e-3, miss=0.05)
        plan = baseline_plan(job.operator_specs())
        first = evaluate_replan(job, plan, registry, env, "map")
        assert first is not None
        again = evaluate_replan(job, first.new_plan, registry, env, "map")
        assert again is None

    def test_scale_zero_means_no_remaining_work(self, efind_env, env):
        job = efind_env.make_job("e7")
        registry = make_registry(job, tj=5e-3, miss=0.05)
        plan = baseline_plan(job.operator_specs())
        assert (
            evaluate_replan(job, plan, registry, env, "map", scale=0.0) is None
        )

    def test_scale_magnifies_improvement(self, efind_env, env):
        job = efind_env.make_job("e8")
        registry = make_registry(job, tj=5e-3, miss=0.05)
        plan = baseline_plan(job.operator_specs())
        small = evaluate_replan(job, plan, registry, env, "map", scale=1.0)
        big = evaluate_replan(job, plan, registry, env, "map", scale=10.0)
        assert big.improvement > small.improvement


def perturbed_registry(job):
    """A registry whose head0 statistics have a small but nonzero
    relative deviation (one sample 20% heavier than the rest)."""
    registry = make_registry(job, tj=5e-3, miss=0.05)
    acc = registry["head0"]
    acc.samples[0].n1 = int(acc.samples[0].n1 * 1.2)
    return registry


class TestVarianceGateEdges:
    def test_exactly_at_threshold_is_stable(self, efind_env, env):
        """The gate is ``rdev <= threshold``: a deviation exactly equal
        to the threshold still counts as stable."""
        job = efind_env.make_job("vg1")
        registry = perturbed_registry(job)
        rdev = registry["head0"].relative_deviation()
        assert 0.0 < rdev < math.inf
        plan = baseline_plan(job.operator_specs())
        at = evaluate_replan(
            job, plan, registry, env, "map", variance_threshold=rdev
        )
        assert at is not None

    def test_just_below_threshold_blocks(self, efind_env, env):
        job = efind_env.make_job("vg2")
        registry = perturbed_registry(job)
        rdev = registry["head0"].relative_deviation()
        plan = baseline_plan(job.operator_specs())
        audit = AdaptiveAuditLog()
        below = evaluate_replan(
            job,
            plan,
            registry,
            env,
            "map",
            variance_threshold=math.nextafter(rdev, 0.0),
            audit=audit,
        )
        assert below is None
        record = audit.records[-1]
        assert record.verdict == VERDICT_VARIANCE_GATE
        entry = next(g for g in record.gate if g["operator"] == "head0")
        assert entry["relative_deviation"] == pytest.approx(rdev)
        assert not entry["stable"]

    def test_single_sample_is_unstable(self, efind_env, env):
        """One task sample has no variance estimate at all: the gate
        must treat it as unstable, not as perfectly stable."""
        job = efind_env.make_job("vg3")
        registry = make_registry(job, samples=1)
        assert registry["head0"].relative_deviation() == math.inf
        audit = AdaptiveAuditLog()
        decision = evaluate_replan(
            job,
            baseline_plan(job.operator_specs()),
            registry,
            env,
            "map",
            audit=audit,
        )
        assert decision is None
        entry = next(g for g in audit.records[-1].gate if g["operator"] == "head0")
        assert entry["num_samples"] == 1
        assert entry["relative_deviation"] is None
        assert not entry["stable"]

    def test_zero_mean_statistic_is_skipped_not_divided(self, efind_env, env):
        """All-zero byte statistics (mean 0) must not divide by zero;
        with identical n1 samples the deviation is exactly 0.0 and the
        gate passes."""
        job = efind_env.make_job("vg4")
        registry = {}
        for op_id, (_pl, m) in job.operator_specs().items():
            acc = OperatorStatsAccumulator(op_id, m, 12)
            for t in range(3):
                acc.sample_for(f"z{t}").n1 = 100  # identical; all bytes zero
            registry[op_id] = acc
        assert registry["head0"].relative_deviation() == 0.0
        audit = AdaptiveAuditLog()
        evaluate_replan(
            job,
            baseline_plan(job.operator_specs()),
            registry,
            env,
            "map",
            audit=audit,
        )
        record = audit.records[-1]
        assert record.verdict != VERDICT_VARIANCE_GATE
        assert all(g["stable"] for g in record.gate)


class TestAuditRecords:
    def test_replan_record_is_complete(self, efind_env, env):
        job = efind_env.make_job("ar1")
        registry = make_registry(job, tj=5e-3, miss=0.05)
        audit = AdaptiveAuditLog()
        decision = evaluate_replan(
            job,
            baseline_plan(job.operator_specs()),
            registry,
            env,
            "map",
            audit=audit,
            now=1.5,
        )
        assert decision is not None
        record = decision.audit_record
        assert record is audit.records[-1]
        assert record.verdict == VERDICT_REPLAN
        assert record.sim_time == 1.5
        assert record.new_cost < record.current_cost
        detail = next(o for o in record.operators if o["operator"] == "head0")
        # every strategy priced for every index, plus eligibility
        for table in detail["strategies"].values():
            assert set(table["costs"]) == {
                "base",
                "cache",
                "repart",
                "idxloc",
                "partial",
            }
            assert set(table["eligible"]) <= set(table["costs"])
        # the statistics priced, in the catalog's form
        stats = OperatorStats.from_dict(detail["stats"])
        assert set(detail["strategies"]) == {str(j) for j in stats.per_index}
        assert detail["stats"]["n1"] == decision.fresh_stats["head0"].n1
        assert detail["current"] != detail["chosen"]

    def test_no_audit_log_records_nothing(self, efind_env, env):
        job = efind_env.make_job("ar2")
        registry = make_registry(job, tj=5e-3, miss=0.05)
        decision = evaluate_replan(
            job, baseline_plan(job.operator_specs()), registry, env, "map"
        )
        assert decision is not None
        assert decision.audit_record is None

    def test_every_evaluation_is_recorded(self, efind_env, env):
        """Negative verdicts are logged too -- the log explains refusals
        to re-plan, not just plan changes."""
        job = efind_env.make_job("ar3")
        registry = make_registry(job, tj=5e-3, miss=0.05)
        plan = baseline_plan(job.operator_specs())
        audit = AdaptiveAuditLog()
        evaluate_replan(
            job,
            plan,
            registry,
            env,
            "map",
            plan_change_cost=1e9,
            audit=audit,
        )
        assert len(audit) == 1
        assert audit.records[0].verdict == "improvement_below_threshold"
        assert not audit.replans


class TestAdaptiveEndToEnd:
    def test_dynamic_beats_baseline_with_expensive_lookups(self, efind_env):
        base = efind_env.runner().run(
            efind_env.make_job("a-base"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        dyn = efind_env.runner().run(efind_env.make_job("a-dyn"), mode="dynamic")
        assert sorted(dyn.output) == sorted(base.output)
        assert dyn.sim_time <= base.sim_time

    def test_dynamic_replans_and_reports_phase(self, efind_env):
        dyn = efind_env.runner(plan_change_overhead=0.5).run(
            efind_env.make_job("a-dyn2"), mode="dynamic"
        )
        assert dyn.replanned
        assert dyn.replan_phase == "map"
        assert not dyn.plan.same_strategies(dyn.initial_plan)

    def test_dynamic_slower_than_static_optimal(self, efind_env):
        """The paper: dynamic pays the statistics-collection phase."""
        profiler = efind_env.runner()
        profiler.run(
            efind_env.make_job("a-prof"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        opt = profiler.run(efind_env.make_job("a-opt"), mode="static")
        dyn = efind_env.runner().run(efind_env.make_job("a-dyn3"), mode="dynamic")
        assert dyn.sim_time >= opt.sim_time

    def test_reduce_phase_replan_for_tail_op(self, efind_env):
        dyn = efind_env.runner(variance_threshold=0.6).run(
            efind_env.make_job("a-tail", placement="tail", reduce_tasks=48),
            mode="dynamic",
        )
        base = efind_env.runner().run(
            efind_env.make_job("a-tail-base", placement="tail", reduce_tasks=48),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        assert sorted(dyn.output) == sorted(base.output)

    def test_at_most_one_plan_change(self, efind_env):
        dyn = efind_env.runner(plan_change_overhead=0.5).run(
            efind_env.make_job("a-once"), mode="dynamic"
        )
        if dyn.replanned:
            # after the change, every subsequent stage ran to completion
            for stage in dyn.stage_results[1:]:
                assert not stage.aborted
