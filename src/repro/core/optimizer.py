"""Plan optimization: single-index strategy choice plus the multi-index
FullEnumerate and k-Repart algorithms of Section 3.5.

The algorithms lean on the paper's four properties:

1. Baseline/cache costs of index *j* do not depend on access order.
2. Re-partitioning / index-locality costs depend on the order because
   earlier lookup results travel through later shuffles.
3. With the order fixed, index *j*'s strategy cost is independent of the
   other indices' strategy choices.
4. In an optimal plan, re-partitioning / index-locality indices come
   before baseline/cache ones -- so once a baseline/cache strategy is
   picked at some position, the remaining positions only consider
   baseline/cache.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.costmodel import (
    CostEnv,
    Placement,
    Strategy,
    strategy_cost,
)
from repro.core.plan import AccessPlan, OperatorPlan
from repro.core.statistics import OperatorStats

#: Up to this many indices per operator we can afford m! enumeration
#: (the paper: "m <= 5, m! <= 120").
_FULL_ENUMERATE_LIMIT = 5


def eligible_strategies(
    op: OperatorStats,
    index_id: int,
    supports_locality: bool,
    allow_extra_job: bool,
    idempotent: bool = True,
) -> List[Strategy]:
    """Strategies the executor can actually run for this index.

    A non-idempotent index (accessor flag, paper footnote 2) is pinned
    to the baseline: caching or deduplicating its lookups would change
    the results.

    While an index is only partially built (``0 < coverage < 1``,
    reported by the build session of ``indices/build/``), the plain
    cache strategy is replaced by the PARTIAL hybrid: Equation 2 is
    predicated on the index answering every key, which a partial index
    cannot, so PARTIAL prices the same cached access coverage-blended
    with the scan-assisted remainder. At coverage 0 or 1 the set is
    exactly the pre-build one.
    """
    if not idempotent:
        return [Strategy.BASELINE]
    idx = op.index(index_id)
    if 0.0 < idx.build_coverage < 1.0:
        out = [Strategy.BASELINE, Strategy.PARTIAL]
    else:
        out = [Strategy.BASELINE, Strategy.CACHE]
    # A shuffle strategy keys each record by its one lookup key: no
    # sampled record may have listed more (an exact count, not the
    # average Nik, which half keyless and half two-key records hold at 1).
    if allow_extra_job and 0 < idx.nik <= 1 and idx.multi_key_records == 0:
        out.append(Strategy.REPART)
        if supports_locality:
            out.append(Strategy.IDXLOC)
    return out


def best_strategy_for_index(
    env: CostEnv,
    op: OperatorStats,
    index_id: int,
    placement: Placement,
    supports_locality: bool,
    allow_extra_job: bool,
    carried_bytes: float = 0.0,
    idempotent: bool = True,
) -> Tuple[Strategy, float]:
    """Cheapest strategy for one index at one position (Property 3)."""
    idx = op.index(index_id)
    best: Optional[Tuple[Strategy, float]] = None
    for strategy in eligible_strategies(
        op, index_id, supports_locality, allow_extra_job, idempotent
    ):
        cost = strategy_cost(strategy, env, op, idx, placement, carried_bytes)
        if best is None or cost < best[1]:
            best = (strategy, cost)
    return best


def _cost_of_order(
    env: CostEnv,
    op: OperatorStats,
    placement: Placement,
    locality: Sequence[bool],
    order: Sequence[int],
    extra_job_positions: Optional[int] = None,
    idempotent: Optional[Sequence[bool]] = None,
) -> Tuple[float, Dict[int, Strategy]]:
    """Walk one access order, choosing each index's best strategy.

    ``extra_job_positions`` limits how many leading positions may use
    REPART/IDXLOC (None = unlimited, i.e. FullEnumerate; k for k-Repart).
    Property 4 prunes: after the first baseline/cache pick, the rest are
    restricted to baseline/cache.
    """
    total = 0.0
    strategies: Dict[int, Strategy] = {}
    carried = 0.0
    extra_job_allowed = True
    for position, index_id in enumerate(order):
        allow = extra_job_allowed and (
            extra_job_positions is None or position < extra_job_positions
        )
        strategy, cost = best_strategy_for_index(
            env, op, index_id, placement, locality[index_id], allow, carried,
            idempotent=idempotent[index_id] if idempotent is not None else True,
        )
        strategies[index_id] = strategy
        total += cost
        idx = op.index(index_id)
        # Later shuffles must carry this index's results (Property 2).
        carried += idx.nik * idx.siv
        if strategy in (Strategy.BASELINE, Strategy.CACHE, Strategy.PARTIAL):
            extra_job_allowed = False
    return total, strategies


def full_enumerate(
    env: CostEnv,
    op: OperatorStats,
    placement: Placement,
    locality: Sequence[bool],
    operator_id: str,
    idempotent: Optional[Sequence[bool]] = None,
) -> OperatorPlan:
    """Algorithm FullEnumerate: try all m! access orders."""
    m = len(locality)
    best_plan: Optional[OperatorPlan] = None
    for order in itertools.permutations(range(m)):
        cost, strategies = _cost_of_order(
            env, op, placement, locality, order, idempotent=idempotent
        )
        if best_plan is None or cost < best_plan.estimated_cost:
            best_plan = OperatorPlan(
                operator_id=operator_id,
                placement=placement,
                order=list(order),
                strategies=strategies,
                estimated_cost=cost,
            )
    if best_plan is None:
        best_plan = OperatorPlan(operator_id, placement, [], {}, 0.0)
    return best_plan


def k_repart(
    env: CostEnv,
    op: OperatorStats,
    placement: Placement,
    locality: Sequence[bool],
    operator_id: str,
    k: int,
    idempotent: Optional[Sequence[bool]] = None,
) -> OperatorPlan:
    """Algorithm k-Repart: enumerate the P(m, k) prefixes that may use an
    extra-job strategy; the remaining indices use baseline/cache (whose
    costs are order-independent, Property 1)."""
    m = len(locality)
    k = max(0, min(k, m))
    all_ids = list(range(m))
    best_plan: Optional[OperatorPlan] = None
    for prefix in itertools.permutations(all_ids, k):
        rest = [i for i in all_ids if i not in prefix]
        order = list(prefix) + rest
        cost, strategies = _cost_of_order(
            env, op, placement, locality, order, extra_job_positions=k,
            idempotent=idempotent,
        )
        if best_plan is None or cost < best_plan.estimated_cost:
            best_plan = OperatorPlan(
                operator_id=operator_id,
                placement=placement,
                order=order,
                strategies=strategies,
                estimated_cost=cost,
            )
    if best_plan is None:
        best_plan = OperatorPlan(operator_id, placement, [], {}, 0.0)
    return best_plan


def optimize_operator(
    env: CostEnv,
    op: OperatorStats,
    placement: Placement,
    locality: Sequence[bool],
    operator_id: str,
    k: int = 2,
    full_enumerate_limit: int = _FULL_ENUMERATE_LIMIT,
    idempotent: Optional[Sequence[bool]] = None,
) -> OperatorPlan:
    """Choose FullEnumerate for few indices, fall back to k-Repart."""
    if len(locality) <= full_enumerate_limit:
        return full_enumerate(env, op, placement, locality, operator_id, idempotent)
    return k_repart(env, op, placement, locality, operator_id, k, idempotent)


def plan_cost(
    env: CostEnv,
    op: OperatorStats,
    op_plan: "OperatorPlan",
) -> float:
    """Price an already-chosen operator plan under given statistics
    (used to compare the running plan against a re-optimized one)."""
    total = 0.0
    carried = 0.0
    for index_id in op_plan.order:
        strategy = op_plan.strategy_of(index_id)
        idx = op.index(index_id)
        total += strategy_cost(strategy, env, op, idx, op_plan.placement, carried)
        carried += idx.nik * idx.siv
    return total


def baseline_plan(
    operator_specs: Dict[str, Tuple[Placement, int]]
) -> AccessPlan:
    """The no-statistics starting plan: baseline everywhere.

    ``operator_specs`` maps operator id to (placement, num_indices).
    """
    plan = AccessPlan()
    for op_id, (placement, m) in operator_specs.items():
        plan.operators[op_id] = OperatorPlan(
            operator_id=op_id,
            placement=placement,
            order=list(range(m)),
            strategies={j: Strategy.BASELINE for j in range(m)},
            estimated_cost=math.inf,
        )
    return plan


def forced_plan(
    operator_specs: Dict[str, Tuple[Placement, int]],
    strategy: Strategy,
    extra_job_targets: Optional[Iterable[str]] = None,
    fallback: Strategy = Strategy.CACHE,
) -> AccessPlan:
    """Force one strategy everywhere (benchmark modes Base/Cache), or --
    for REPART/IDXLOC, which the paper applies to one chosen index while
    the rest use the cache -- force it on ``extra_job_targets`` only."""
    plan = AccessPlan()
    targets = set(extra_job_targets) if extra_job_targets is not None else None
    for op_id, (placement, m) in operator_specs.items():
        if strategy in (Strategy.REPART, Strategy.IDXLOC) and targets is not None:
            chosen = strategy if op_id in targets else fallback
        else:
            chosen = strategy
        plan.operators[op_id] = OperatorPlan(
            operator_id=op_id,
            placement=placement,
            order=list(range(m)),
            strategies={j: chosen for j in range(m)},
            estimated_cost=math.inf,
        )
    return plan


def optimize_job(
    env: CostEnv,
    per_operator: Dict[str, Tuple[OperatorStats, Placement, Sequence[bool]]],
    k: int = 2,
) -> AccessPlan:
    """Optimize every operator independently (Section 3: operators keep
    their user-given order; only strategies are chosen)."""
    plan = AccessPlan()
    total = 0.0
    for op_id, (stats, placement, locality) in per_operator.items():
        op_plan = optimize_operator(env, stats, placement, locality, op_id, k=k)
        plan.operators[op_id] = op_plan
        total += op_plan.estimated_cost
    plan.estimated_cost = total
    return plan
