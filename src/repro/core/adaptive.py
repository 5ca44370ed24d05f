"""Adaptive re-optimization: Algorithm 1 of the paper.

A running job is re-optimized at most once, when the first wave of map
(or reduce) tasks has completed and their statistics pass the variance
gate. Only the operators whose statistics are fresh are reconsidered:
operators *before* Reduce during the map phase, operators *after*
Reduce during the reduce phase.

When an :class:`repro.obs.audit.AdaptiveAuditLog` is supplied, every
evaluation -- including the ones that decide *not* to re-plan -- is
recorded with its gate inputs, fresh Θ/R/T_j samples, and the
Equation 1-4 cost of every strategy, so a surprising plan (or a
surprising refusal to change plans) can be audited after the run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.core.costmodel import CostEnv, Placement
from repro.core.ejobconf import IndexJobConf
from repro.core.optimizer import optimize_operator, plan_cost
from repro.core.plan import AccessPlan, OperatorPlan
from repro.core.statistics import OperatorStats, OperatorStatsAccumulator
from repro.core.strategy import LookupSettings
from repro.obs.audit import (
    VERDICT_NO_IMPROVEMENT,
    VERDICT_NO_OPERATORS,
    VERDICT_REPLAN,
    VERDICT_SAME_STRATEGIES,
    VERDICT_VARIANCE_GATE,
    strategy_cost_table,
)

#: The paper suggests a variance gate of stddev/mean <= 0.05 on large
#: clusters; at simulation scale task samples are smaller and noisier,
#: so the default is looser (configurable on the runner).
DEFAULT_VARIANCE_THRESHOLD = 0.25


@dataclass
class ReplanDecision:
    """Outcome of one Algorithm-1 evaluation."""

    new_plan: AccessPlan
    fresh_stats: Dict[str, OperatorStats]
    current_cost: float
    new_cost: float
    #: The AuditRecord of this evaluation (None when no audit log was
    #: supplied); the runner marks it applied with the reuse outcome.
    audit_record: Optional[Any] = None

    @property
    def improvement(self) -> float:
        return self.current_cost - self.new_cost


def relevant_operator_ids(iconf: IndexJobConf, phase: str) -> List[str]:
    """Operators whose statistics are fresh in ``phase`` (Algorithm 1
    lines 5-8): before-Reduce operators during map, after-Reduce ones
    during reduce."""
    out: List[str] = []
    for op_id, placement, _ in iconf.placed_operators():
        if phase == "map" and placement is not Placement.AFTER_REDUCE:
            out.append(op_id)
        elif phase == "reduce" and placement is Placement.AFTER_REDUCE:
            out.append(op_id)
    return out


def evaluate_replan(
    iconf: IndexJobConf,
    current_plan: AccessPlan,
    registry: Dict[str, OperatorStatsAccumulator],
    env: CostEnv,
    phase: str,
    variance_threshold: float = DEFAULT_VARIANCE_THRESHOLD,
    plan_change_cost: float = 0.0,
    scale: float = 1.0,
    settings: LookupSettings = LookupSettings(),
    audit=None,
    now: float = 0.0,
    num_hosts: int = 1,
) -> Optional[ReplanDecision]:
    """Algorithm 1: return a better plan, or None to keep running.

    ``settings`` are the run's lookup settings. Its reuse store (if
    any) seeds each index's reuse-hit prior from warm-store occupancy:
    instead of the pessimistic "no cross-job hits" default, the planner
    prices the fetch terms of Equations 1-4 down by the fraction of the
    key set the store already holds (``num_hosts`` normalises per-host
    occupancy). The seed only fills in when the run has not yet probed
    the store itself; observed hit ratios always win.

    Its build session (if any) overrides each index's sampled build
    coverage with the catalog's authoritative value and attaches the
    job's accrued build debt: the first-wave sample only sees the keys
    it happened to look up, while the manager knows exactly which
    buckets are committed. The debt is strategy-invariant, so it is
    audited but never priced.

    ``scale`` extrapolates the sampled input volume to the *remaining*
    work (remaining tasks / sampled tasks): a plan change only pays off
    on data not yet processed, so both plans are priced over the
    remaining volume and compared against the plan-change overhead.
    Duplicate and miss ratios are not extrapolated -- the sample values
    are the conservative estimates (the miss ratio is additionally
    tightened by the compulsory-miss capacity bound).

    ``audit`` (an ``AdaptiveAuditLog``) records the evaluation -- its
    inputs and verdict -- stamped at simulated time ``now``; both are
    optional and change nothing about the decision itself.

    Returns None when (a) there is nothing to reconsider, (b) any
    relevant operator's statistics fail the variance gate, or (c) the
    re-optimized plan does not beat the current one by more than the
    plan-change overhead.
    """

    def record(verdict, **kw):
        if audit is None:
            return None
        return audit.record_evaluation(
            job=iconf.name,
            phase=phase,
            sim_time=now,
            verdict=verdict,
            variance_threshold=variance_threshold,
            plan_change_cost=plan_change_cost,
            scale=scale,
            env=asdict(env),
            current_plan=current_plan.describe(),
            **kw,
        )

    reuse, build = settings.reuse, settings.build
    op_ids = relevant_operator_ids(iconf, phase)
    if not op_ids:
        record(VERDICT_NO_OPERATORS, gate=[])
        return None

    # Variance gate (Algorithm 1 lines 1-3 / Equation 5). An operator
    # with unstable statistics keeps its current strategies; it does not
    # veto re-optimizing the operators whose statistics *are* stable.
    gate: List[Dict[str, Any]] = []
    stable_ids = []
    for op_id in op_ids:
        acc = registry.get(op_id)
        if acc is None or acc.num_samples < 2:
            gate.append(
                {
                    "operator": op_id,
                    "num_samples": 0 if acc is None else acc.num_samples,
                    "relative_deviation": None,
                    "stable": False,
                }
            )
            continue
        rdev = acc.relative_deviation()
        stable = rdev <= variance_threshold
        gate.append(
            {
                "operator": op_id,
                "num_samples": acc.num_samples,
                "relative_deviation": rdev,
                "stable": stable,
            }
        )
        if stable:
            stable_ids.append(op_id)
    if not stable_ids:
        record(VERDICT_VARIANCE_GATE, gate=gate)
        return None

    fresh: Dict[str, OperatorStats] = {}
    for op_id in stable_ids:
        stats = registry[op_id].aggregate()
        stats.n1 *= max(0.0, scale)
        op = iconf.operator_by_id(op_id)
        for j, idx in stats.per_index.items():
            # The whole-job key volume changes the compulsory-miss bound.
            idx.miss_ratio = idx.capacity_bounded_miss_ratio(
                stats.n1, settings.cache_capacity
            )
            if reuse is not None and j < len(op.accessors):
                idx.reuse_seed = reuse.seeded_hit_ratio(
                    op.accessors[j], idx.distinct, num_hosts
                )
            if build is not None and j < len(op.accessors):
                name = op.accessors[j].name
                idx.build_coverage = build.coverage(name)
                idx.build_debt = build.job_debt(name)
        fresh[op_id] = stats

    current_cost = 0.0
    new_plan = AccessPlan(operators=dict(current_plan.operators))
    new_cost = 0.0
    operators_detail: List[Dict[str, Any]] = []
    for op_id in stable_ids:
        op = iconf.operator_by_id(op_id)
        stats = fresh[op_id]
        locality = [a.supports_locality for a in op.accessors]
        idempotent = [a.idempotent for a in op.accessors]
        current_cost += plan_cost(env, stats, current_plan.operators[op_id])
        op_plan = optimize_operator(
            env, stats, current_plan.operators[op_id].placement, locality, op_id,
            idempotent=idempotent,
        )
        new_plan.operators[op_id] = op_plan
        new_cost += op_plan.estimated_cost
        if audit is not None:
            placement = current_plan.operators[op_id].placement
            operators_detail.append(
                {
                    "operator": op_id,
                    "placement": placement.value,
                    "stats": stats.to_dict(),
                    "strategies": strategy_cost_table(
                        env, stats, placement, locality, idempotent
                    ),
                    "current": {
                        str(j): s.value
                        for j, s in current_plan.operators[
                            op_id
                        ].strategies.items()
                    },
                    "chosen": {
                        str(j): s.value for j, s in op_plan.strategies.items()
                    },
                    "chosen_order": list(op_plan.order),
                    "chosen_cost": op_plan.estimated_cost,
                }
            )

    decision = ReplanDecision(
        new_plan=new_plan,
        fresh_stats=fresh,
        current_cost=current_cost,
        new_cost=new_cost,
    )
    verdict_kw = dict(
        gate=gate,
        operators=operators_detail,
        current_cost=current_cost,
        new_cost=new_cost,
        new_plan=new_plan.describe(),
    )
    if decision.improvement <= plan_change_cost:
        record(VERDICT_NO_IMPROVEMENT, **verdict_kw)
        return None
    if new_plan.same_strategies(current_plan):
        record(VERDICT_SAME_STRATEGIES, **verdict_kw)
        return None
    decision.audit_record = record(VERDICT_REPLAN, **verdict_kw)
    return decision
