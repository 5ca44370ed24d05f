"""EXPLAIN for EFind plans: render the physical stages a plan compiles
to, with per-operator strategies and (when statistics are available)
estimated costs.

Usage::

    from repro.core.explain import explain
    print(explain(iconf, runner=runner))            # plan the runner would pick
    print(explain(iconf, plan=some_plan, cluster=cluster))

The output is meant for humans debugging why the optimizer picked what
it picked -- the textual analogue of a database EXPLAIN.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.compiler import compile_plan
from repro.core.costmodel import CostEnv, Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.optimizer import plan_cost
from repro.core.plan import AccessPlan
from repro.core.statistics import OperatorStats
from repro.mapreduce.counters import FEATURE_COUNTERS, feature_totals
from repro.simcluster.cluster import Cluster

_STRATEGY_LABEL = {
    Strategy.BASELINE: "baseline (chained lookup per record)",
    Strategy.CACHE: "lookup cache (node-local LRU)",
    Strategy.REPART: "re-partitioning (shuffle groups duplicate keys)",
    Strategy.IDXLOC: "index locality (lookups co-located with partitions)",
    Strategy.PARTIAL: "partial index (cached lookups + scan of unbuilt remainder)",
}


def explain(
    iconf: IndexJobConf,
    plan: Optional[AccessPlan] = None,
    runner=None,
    cluster: Optional[Cluster] = None,
    op_stats: Optional[Dict[str, OperatorStats]] = None,
    result=None,
    trace_dir: Optional[str] = None,
) -> str:
    """Render ``plan`` (or the plan ``runner`` would choose statically)
    as a human-readable physical plan.

    ``result`` (an :class:`repro.core.runner.EFindJobResult`, optional)
    appends what actually happened at runtime: the ``fault.*`` and
    ``batch.*`` counter groups and the adaptive audit-log summary --
    EXPLAIN ANALYZE to the plan's EXPLAIN.

    ``trace_dir`` (optional) points at exported observability artifacts
    (``python -m repro.bench --trace DIR``, or
    :meth:`repro.obs.Observability.export`); every traced job whose
    name starts with this conf's name gets a one-line critical-path
    summary and a one-line cost-model drift summary from the offline
    analysis layer."""
    if plan is None:
        if runner is None:
            raise ValueError("explain() needs either a plan or a runner")
        plan, stats_hint = runner._static_plan(iconf)
        op_stats = op_stats or stats_hint
    if cluster is None:
        if runner is None:
            raise ValueError("explain() needs a cluster (or a runner)")
        cluster = runner.cluster
    op_stats = op_stats or {}

    env = CostEnv.from_time_model(cluster.time_model)
    lines = [f"EXPLAIN  job {iconf.name!r}"]

    # --- logical view -------------------------------------------------
    lines.append("logical dataflow:")
    for op_id, placement, op in iconf.placed_operators():
        op_plan = plan.operators.get(op_id)
        indices = ", ".join(a.name for a in op.accessors)
        lines.append(
            f"  [{placement.value}] {op_id} ({op.name}) over indices: {indices}"
        )
        if op_plan is None:
            continue
        for position, j in enumerate(op_plan.order):
            strategy = op_plan.strategy_of(j)
            detail = _STRATEGY_LABEL[strategy]
            accessor = op.accessors[j]
            flags = []
            if not accessor.idempotent:
                flags.append("non-idempotent: pinned to baseline")
            if strategy is Strategy.IDXLOC:
                scheme = accessor.partition_scheme
                if scheme is not None:
                    flags.append(f"{scheme.num_partitions} index partitions")
            suffix = f"  [{'; '.join(flags)}]" if flags else ""
            lines.append(
                f"      {position + 1}. index {j} ({accessor.name}): {detail}{suffix}"
            )
        stats = op_stats.get(op_id)
        if stats is not None:
            cost = plan_cost(env, stats, op_plan)
            lines.append(
                f"      estimated cost: {cost:.3f}s/machine "
                f"(N1={stats.n1:.0f}, Spre={stats.spre:.0f}B)"
            )

    # --- physical view ------------------------------------------------
    stages = compile_plan(iconf, plan, cluster, op_stats=op_stats)
    lines.append(f"physical plan: {len(stages)} MapReduce job(s)")
    for i, stage in enumerate(stages):
        conf = stage.conf
        kind = "shuffle job" if stage.is_shuffle else "job"
        lines.append(f"  stage {i} ({kind} {stage.label!r}):")
        chain = " -> ".join(fn.name for fn in conf.map_chain) or "<identity>"
        lines.append(f"    map   : {chain}")
        if conf.reducer is not None:
            post = (
                " -> " + " -> ".join(fn.name for fn in conf.reduce_post_chain)
                if conf.reduce_post_chain
                else ""
            )
            lines.append(
                f"    reduce: {conf.reducer.name}{post} "
                f"(x{conf.num_reduce_tasks} tasks, "
                f"{type(conf.partitioner).__name__})"
            )
        if stage.read_constraint is not None:
            lines.append(
                "    map tasks pinned to index-partition replica hosts "
                f"({stage.read_constraint.num_partitions} partitions)"
            )
        if conf.output_per_partition:
            lines.append("    output: one file per index partition")

    # --- runtime view (EXPLAIN ANALYZE) -------------------------------
    if result is not None:
        lines.extend(_runtime_lines(result))
    if trace_dir is not None:
        lines.extend(_trace_lines(iconf.name, trace_dir))
    return "\n".join(lines)


def _runtime_lines(result) -> list:
    """The post-run section: every feature's counter group and the
    adaptive audit records collected during the run."""
    lines = ["runtime:"]
    for feature in FEATURE_COUNTERS.values():
        totals = feature_totals(result.counters, feature.group)
        if totals:
            pairs = ", ".join(f"{k}={v:g}" for k, v in sorted(totals.items()))
            lines.append(f"  {feature.group}.*: {pairs}")
        else:
            lines.append(f"  {feature.group}.*: none")
    lines.extend(_build_coverage_lines(result))
    audit = getattr(result, "audit", None) or []
    if audit:
        from repro.obs.audit import AdaptiveAuditLog

        log = AdaptiveAuditLog()
        log.records = list(audit)
        lines.append("  adaptive audit:")
        lines.extend(f"    {line}" for line in log.summary_lines())
    else:
        lines.append("  adaptive audit: no evaluations recorded")
    return lines


def _build_coverage_lines(result) -> list:
    """One coverage line per index that ran under a build session
    (identified by sampled coverage below 1, or scan-assisted lookups
    observed); silent for build-free runs."""
    lines = []
    stats = getattr(result, "stats", None) or {}
    for op_id in sorted(stats):
        for j, idx in sorted(stats[op_id].per_index.items()):
            if idx.build_coverage >= 1.0 and idx.build_scan_tj == 0.0:
                continue
            scan = (
                f", scan tj {idx.build_scan_tj * 1e3:.2f}ms"
                if idx.build_scan_tj > 0.0
                else ""
            )
            lines.append(
                f"  build coverage: {op_id}/index {j} "
                f"{idx.build_coverage:.0%} built{scan}"
            )
    return lines


def _trace_lines(job_name: str, trace_dir: str) -> list:
    """One critical-path line and one drift line per traced job whose
    name starts with ``job_name`` (the bench harness exports variants
    as ``<name>-<mode>``)."""
    from repro.obs.analysis import critical_path as cp
    from repro.obs.analysis import drift as dr
    from repro.obs.analysis.loader import TraceArtifactError, load_artifacts

    lines = ["trace analysis:"]
    try:
        artifacts = load_artifacts(trace_dir)
    except TraceArtifactError as exc:
        lines.append(f"  unavailable: {exc}")
        return lines
    matched = False
    for artifact in artifacts:
        for path in cp.critical_paths(artifact.spans):
            if path.job != job_name and not path.job.startswith(job_name):
                continue
            matched = True
            attribution = path.attribution()
            top = sorted(attribution.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
            top_txt = ", ".join(f"{k} {v:.3f}s" for k, v in top)
            lines.append(
                f"  {path.job}: critical path {path.duration:.3f}s over "
                f"{len(path.segments)} segment(s); top: {top_txt}"
            )
        for d in dr.job_drift(artifact):
            if d.job != job_name and not d.job.startswith(job_name):
                continue
            err = d.recompute_max_abs_error
            err_txt = f"{err:.2e}s" if err is not None else "n/a"
            measured = [t for t in d.terms if t.measured is not None]
            worst = (
                max(measured, key=lambda t: t.rel_error) if measured else None
            )
            worst_txt = (
                f"; worst term {worst.operator}/idx{worst.index} "
                f"{worst.term} off {worst.rel_error:.1%}"
                if worst
                else ""
            )
            lines.append(
                f"  {d.job}: drift over {d.evaluations} evaluation(s), "
                f"max recompute error {err_txt}{worst_txt}"
            )
    if not matched:
        lines.append(f"  no traced jobs matching {job_name!r} under {trace_dir}")
    return lines
