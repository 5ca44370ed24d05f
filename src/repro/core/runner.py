"""EFindRunner: the runtime system of Figure 8.

Ties everything together: plans (forced / statically optimized /
adaptive), compiles them to physical stages, executes the stages on the
MapReduce engine, collects statistics into the catalog, and -- in
dynamic mode -- re-optimizes a running job once per Algorithm 1,
reusing completed tasks' results per Figures 9-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import PlanningError
from repro.core.adaptive import (
    DEFAULT_VARIANCE_THRESHOLD,
    ReplanDecision,
    evaluate_replan,
)
from repro.core.compiler import StageSpec, compile_plan
from repro.core.costmodel import CostEnv, Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.optimizer import baseline_plan, forced_plan, optimize_operator
from repro.core.plan import AccessPlan, OperatorPlan
from repro.core.statistics import (
    IndexStats,
    OperatorStats,
    OperatorStatsAccumulator,
    StatisticsCatalog,
)
from repro.core.strategy import LookupSettings
from repro.dfs.filesystem import DistributedFileSystem, chunk_records
from repro.dfs.splits import InputSplit
from repro.indices.routing import ROUTE_LEAST_LOADED, ReplicaRouter
from repro.mapreduce.counters import Counters
from repro.mapreduce.runtime import JobResult, JobRunner
from repro.mapreduce.speculation import SpeculationConfig
from repro.obs.trace import DEPTH_JOB, DRIVER_TRACK
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan

Record = Tuple[Any, Any]


@dataclass
class EFindJobResult:
    """Outcome of one EFind-enhanced job."""

    name: str
    output: List[Record]
    start_time: float
    end_time: float
    stage_results: List[JobResult] = field(default_factory=list)
    plan: Optional[AccessPlan] = None
    initial_plan: Optional[AccessPlan] = None
    replanned: bool = False
    replan_phase: Optional[str] = None
    stats: Dict[str, OperatorStats] = field(default_factory=dict)
    counters: Counters = field(default_factory=Counters)
    #: AuditRecords of this job's Algorithm-1 evaluations (empty unless
    #: the runner was built with an Observability instance).
    audit: List[Any] = field(default_factory=list)

    @property
    def sim_time(self) -> float:
        return self.end_time - self.start_time

    @property
    def num_stages(self) -> int:
        return len(self.stage_results)

    def summary(self) -> str:
        """A one-glance report of how the job ran (for logs and REPLs)."""
        lines = [
            f"EFind job {self.name!r}: {self.sim_time:.2f}s simulated "
            f"across {self.num_stages} MapReduce job(s)"
        ]
        if self.plan is not None:
            lines.append(f"  plan: {self.plan.describe()}")
        if self.replanned:
            lines.append(
                f"  re-optimized mid-{self.replan_phase}: "
                f"{self.initial_plan.describe()} -> {self.plan.describe()}"
            )
        for i, stage in enumerate(self.stage_results):
            flags = f" (aborted mid-{stage.aborted_phase})" if stage.aborted else ""
            lines.append(
                f"  stage {i}: {stage.sim_time:6.2f}s, "
                f"{len(stage.map_runs)} map / {len(stage.reduce_runs)} reduce "
                f"tasks{flags}"
            )
        lines.append(f"  output: {len(self.output)} records")
        return "\n".join(lines)


class EFindRunner:
    """Adaptive job optimizer + plan implementer + runtime environment."""

    def __init__(
        self,
        cluster: Cluster,
        dfs: DistributedFileSystem,
        catalog: Optional[StatisticsCatalog] = None,
        cache_capacity: int = 1024,
        variance_threshold: float = DEFAULT_VARIANCE_THRESHOLD,
        plan_change_overhead: Optional[float] = None,
        fault_plan: Optional["FaultPlan"] = None,
        batch_size: int = 1,
        obs=None,
        reuse=None,
        speculation_factor: Optional[float] = None,
        route_policy: Optional[str] = None,
        build=None,
    ):
        self.cluster = cluster
        self.dfs = dfs
        self.fault_plan = fault_plan
        # What every lookup stage of every job shares. ``reuse``: a
        # ReuseStore whose state outlives each job this runner runs. ``build``: a BuildSession
        # (repro.indices.build) whose catalog outlives each job; None
        # (the default) leaves every build gate short-circuited and
        # execution bit-identical to the pre-build runner.
        self.settings = LookupSettings(
            cache_capacity, batch_size, reuse, build
        )
        # repro.obs.Observability (or None): tracing + metrics + the
        # adaptive audit log. Purely passive -- simulated results are
        # identical with or without it.
        self.obs = obs
        # Straggler mitigation: speculative backup tasks (a tail-
        # threshold factor) and replica-aware lookup routing
        # ("least-loaded"). Both default off, leaving execution
        # bit-identical to the unmitigated runner.
        if route_policy not in (None, ROUTE_LEAST_LOADED):
            raise ValueError(
                f"unknown route policy {route_policy!r}; expected None or "
                f"{ROUTE_LEAST_LOADED!r}"
            )
        self.route_policy = route_policy
        self._routers: Dict[str, ReplicaRouter] = {}
        store = self.settings.reuse
        warm_hosts = store.warm_hosts if store is not None else None
        self.job_runner = JobRunner(
            cluster,
            dfs,
            fault_plan=fault_plan,
            obs=obs,
            speculation=(
                None
                if speculation_factor is None
                else SpeculationConfig(factor=speculation_factor)
            ),
            warm_hosts=warm_hosts,
        )
        self.catalog = catalog if catalog is not None else StatisticsCatalog()
        self.variance_threshold = variance_threshold
        tm = cluster.time_model
        self.plan_change_overhead = (
            plan_change_overhead
            if plan_change_overhead is not None
            else tm.job_startup_time
        )
        self._run_seq = 0

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(
        self,
        iconf: IndexJobConf,
        mode: str = "dynamic",
        forced_strategy: Optional[Union[Strategy, str]] = None,
        extra_job_targets: Optional[Sequence[str]] = None,
        boundary_override: Optional[str] = None,
        plan: Optional[AccessPlan] = None,
        update_catalog: bool = True,
        start_time: float = 0.0,
    ) -> EFindJobResult:
        """Run an EFind-enhanced job.

        Modes:

        * ``"dynamic"`` -- start with the baseline plan, collect
          statistics on the fly, re-optimize once if worthwhile
          (Section 4).
        * ``"static"`` -- plan up front from catalog statistics
          (operators without statistics fall back to baseline).
        * ``"forced"`` -- pin ``forced_strategy`` everywhere; for
          REPART/IDXLOC, ``extra_job_targets`` names the operator ids
          that get the extra-job strategy while the rest use the cache
          (the paper's Repart/Idxloc experiment configuration).
        * ``"plan"`` -- execute the explicitly supplied ``plan``.
        """
        iconf.validate()
        if self.route_policy is not None:
            self._attach_routers(iconf)
        specs = iconf.operator_specs()
        registry = {
            op_id: OperatorStatsAccumulator(
                op_id, m, self.cluster.num_nodes, self.settings.cache_capacity
            )
            for op_id, (_, m) in specs.items()
        }

        adaptive = False
        op_stats_hint: Dict[str, OperatorStats] = {}
        if mode == "forced":
            strategy = _coerce_strategy(forced_strategy)
            the_plan = forced_plan(specs, strategy, extra_job_targets)
            op_stats_hint = self._catalog_stats(iconf)
        elif mode == "static":
            the_plan, op_stats_hint = self._static_plan(iconf)
        elif mode == "dynamic":
            the_plan = baseline_plan(specs)
            adaptive = True
        elif mode == "plan":
            if plan is None:
                raise PlanningError("mode='plan' requires an explicit plan")
            the_plan = plan
            op_stats_hint = self._catalog_stats(iconf)
        else:
            raise PlanningError(f"unknown run mode: {mode!r}")

        audit_start = (
            len(self.obs.audit.records) if self.obs is not None else 0
        )
        build = self.settings.build
        if build is not None:
            # Freeze per-index build fractions for this job; coverage
            # itself only advances at the commit below.
            build.begin_job()
        result = self._execute(
            iconf,
            the_plan,
            registry,
            adaptive=adaptive,
            op_stats=op_stats_hint,
            boundary_override=boundary_override,
            start_time=start_time,
        )
        if build is not None:
            build.commit_job()
        if update_catalog:
            self._update_catalog(iconf, registry, result)
        if self.obs is not None:
            result.audit = self.obs.audit.records[audit_start:]
            self.obs.metrics.absorb_counters(
                result.counters, prefix=f"job.{iconf.name}"
            )
            self.obs.tracer.span(
                f"efind:{iconf.name}",
                "job",
                DRIVER_TRACK,
                result.start_time,
                result.end_time,
                DEPTH_JOB,
                job=iconf.name,
                mode=mode,
                stages=result.num_stages,
                replanned=result.replanned,
            )
        return result

    def _attach_routers(self, iconf: IndexJobConf) -> None:
        """Attach one persistent :class:`ReplicaRouter` per routing-
        capable index, keyed by index name so load state accumulates
        across this runner's jobs (an index shared between jobs keeps
        balancing against its real cumulative load)."""
        for _, _, op in iconf.placed_operators():
            for accessor in op.accessors:
                index = getattr(accessor, "index", None)
                if index is None or not getattr(
                    index, "supports_routing", False
                ):
                    continue
                router = self._routers.setdefault(
                    index.name, ReplicaRouter()
                )
                index.set_router(router)

    # ------------------------------------------------------------------
    # Planning helpers
    # ------------------------------------------------------------------
    def _catalog_stats(self, iconf: IndexJobConf) -> Dict[str, OperatorStats]:
        out: Dict[str, OperatorStats] = {}
        for op_id, _, op in iconf.placed_operators():
            stats = self.catalog.get(op.signature())
            if stats is not None:
                out[op_id] = self._with_build_state(op, stats)
        return out

    def _with_build_state(self, op, stats: OperatorStats) -> OperatorStats:
        """Overlay the build catalog's authoritative coverage onto
        catalog statistics (copies; the shared catalog stays pristine).

        Coverage sampled by a previous run is stale by construction --
        the commit at that job's end advanced it -- so planning always
        prices against what the manager says is built *now*."""
        build = self.settings.build
        if build is None:
            return stats
        per_index = dict(stats.per_index)
        for j, accessor in enumerate(op.accessors):
            idx = per_index.get(j, IndexStats())
            per_index[j] = replace(
                idx,
                build_coverage=build.coverage(accessor.name),
                build_debt=build.job_debt(accessor.name),
            )
        return replace(stats, per_index=per_index)

    def _static_plan(
        self, iconf: IndexJobConf
    ) -> Tuple[AccessPlan, Dict[str, OperatorStats]]:
        env = CostEnv.from_time_model(self.cluster.time_model)
        stats_by_op = self._catalog_stats(iconf)
        plan = AccessPlan()
        total = 0.0
        for op_id, placement, op in iconf.placed_operators():
            stats = stats_by_op.get(op_id)
            if stats is None:
                plan.operators[op_id] = OperatorPlan(
                    operator_id=op_id,
                    placement=placement,
                    order=list(range(op.num_indices)),
                    strategies={
                        j: Strategy.BASELINE for j in range(op.num_indices)
                    },
                )
                continue
            locality = [a.supports_locality for a in op.accessors]
            idempotent = [a.idempotent for a in op.accessors]
            op_plan = optimize_operator(
                env, stats, placement, locality, op_id, idempotent=idempotent
            )
            plan.operators[op_id] = op_plan
            total += op_plan.estimated_cost
        plan.estimated_cost = total
        return plan, stats_by_op

    def _update_catalog(self, iconf, registry, result: EFindJobResult) -> None:
        for op_id, _, op in iconf.placed_operators():
            acc = registry[op_id]
            if acc.num_samples:
                stats = acc.aggregate()
                self.catalog.put(op.signature(), stats)
                result.stats[op_id] = stats

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(
        self,
        iconf: IndexJobConf,
        plan: AccessPlan,
        registry: Dict[str, OperatorStatsAccumulator],
        adaptive: bool,
        op_stats: Dict[str, OperatorStats],
        boundary_override: Optional[str],
        start_time: float,
    ) -> EFindJobResult:
        stages = self._compile(iconf, plan, registry, op_stats, boundary_override)
        self._assign_paths(iconf, stages, tag="a")
        stages[0].conf.input_paths = list(iconf.input_paths)

        # Adaptive re-optimization hooks only make sense on a
        # single-stage (baseline) run; multi-stage initial plans came
        # from statistics and are not second-guessed mid-flight.
        if not adaptive or len(stages) > 1 or not iconf.placed_operators():
            results = self._run_stages(stages, start_time=start_time)
            return self._package(iconf, plan, plan, results, start_time)

        env = CostEnv.from_time_model(self.cluster.time_model)
        cell: Dict[str, Any] = {}
        audit = self.obs.audit if self.obs is not None else None

        def abort_check(phase: str):
            def check(runs, total_tasks) -> bool:
                decision = evaluate_replan(
                    iconf, plan, registry, env, phase,
                    self.variance_threshold, self.plan_change_overhead,
                    scale=(total_tasks - len(runs)) / max(1, len(runs)),
                    settings=self.settings,
                    audit=audit, now=max(r.end for r in runs),
                    num_hosts=self.cluster.num_nodes,
                )
                if decision is not None:
                    cell["decision"], cell["phase"] = decision, phase
                    return True
                return False

            return check

        first = self.job_runner.run(
            stages[0].conf,
            start_time=start_time,
            abort_check_map=abort_check("map"),
            abort_check_reduce=abort_check("reduce"),
        )
        if not first.aborted:
            return self._package(iconf, plan, plan, [first], start_time)

        decision: ReplanDecision = cell["decision"]
        if cell["phase"] == "map":
            return self._resume_after_map_abort(
                iconf, plan, decision, registry, first, start_time
            )
        return self._resume_after_reduce_abort(
            iconf, plan, decision, registry, first, start_time
        )

    # ------------------------------------------------------------------
    def _compile(
        self, iconf, plan, registry, op_stats, boundary_override=None,
        start_at: str = "head",
    ) -> List[StageSpec]:
        """Compile ``plan`` with this runner's lookup settings."""
        return compile_plan(
            iconf, plan, self.cluster, registry, op_stats, self.settings,
            boundary_override, start_at,
        )

    def _resume_after_map_abort(
        self, iconf, old_plan, decision, registry, first: JobResult, start_time
    ) -> EFindJobResult:
        """Figure 10(a): keep completed map tasks' outputs, process the
        remaining splits under the new plan, and have the new plan's
        reduce fetch both."""
        new_plan = decision.new_plan
        stages = self._compile(iconf, new_plan, registry, decision.fresh_stats)
        self._assign_paths(iconf, stages, tag="b")

        old_outputs: List[Record] = []
        old_sizes: List[int] = []
        for run in first.map_runs:
            old_outputs.extend(run.output)
            old_sizes.extend(run.output_sizes)
            run.output, run.output_sizes = [], None

        final_conf = stages[-1].conf
        if final_conf.reducer is not None:
            final_conf.side_reduce_inputs = old_outputs
            final_conf.side_reduce_sizes = old_sizes

        results = self._run_stages(
            stages,
            start_time=first.end_time,
            first_splits=list(first.remaining_splits),
        )
        output = list(results[-1].output)
        if final_conf.reducer is None:
            output = old_outputs + output
            self.dfs.write(
                iconf.output_path, output, sizes=old_sizes + results[-1].output_sizes
            )

        packaged = self._package(
            iconf, old_plan, new_plan, [first] + results, start_time
        )
        packaged.output = output
        packaged.replanned = True
        packaged.replan_phase = "map"
        if self.obs is not None and decision.audit_record is not None:
            self.obs.audit.mark_applied(
                decision.audit_record,
                applied_at=first.end_time,
                cutover="mid-map",
                map_tasks_reused=len(first.map_runs),
                splits_rerun=len(first.remaining_splits),
                resume_stages=len(results),
            )
        return packaged

    def _resume_after_reduce_abort(
        self, iconf, old_plan, decision, registry, first: JobResult, start_time
    ) -> EFindJobResult:
        """Figure 10(b): completed reduce tasks' outputs join the final
        output directly; the remaining partitions' reduce inputs are
        re-reduced under the new (tail-operator) plan and merged."""
        new_plan = decision.new_plan
        stages = self._compile(
            iconf, new_plan, registry, decision.fresh_stats, start_at="reduce"
        )
        self._assign_paths(iconf, stages, tag="c")

        pending: List[Record] = []
        pending_sizes: List[int] = []
        for p in first.remaining_partitions:
            records, sizes = self.job_runner.sized_reduce_input(first.map_runs, p)
            pending.extend(records)
            pending_sizes.extend(sizes)
        for run in first.map_runs:
            run.buckets, run.bucket_sizes = [], None

        results = self._run_stages(
            stages,
            start_time=first.end_time,
            first_records=pending,
            first_sizes=pending_sizes,
        )
        output = list(first.output) + list(results[-1].output)
        self.dfs.write(
            iconf.output_path,
            output,
            sizes=first.output_sizes + results[-1].output_sizes,
        )

        packaged = self._package(
            iconf, old_plan, new_plan, [first] + results, start_time
        )
        packaged.output = output
        packaged.replanned = True
        packaged.replan_phase = "reduce"
        if self.obs is not None and decision.audit_record is not None:
            self.obs.audit.mark_applied(
                decision.audit_record,
                applied_at=first.end_time,
                cutover="mid-reduce",
                map_tasks_reused=len(first.map_runs),
                reduce_tasks_reused=len(first.reduce_runs),
                partitions_rerun=len(first.remaining_partitions),
                resume_stages=len(results),
            )
        return packaged

    # ------------------------------------------------------------------
    def _run_stages(
        self,
        stages: List[StageSpec],
        start_time: float,
        first_splits: Optional[List[InputSplit]] = None,
        first_records: Optional[List[Record]] = None,
        first_sizes: Optional[List[int]] = None,
    ) -> List[JobResult]:
        t = start_time
        results: List[JobResult] = []
        for i, stage in enumerate(stages):
            conf = stage.conf
            splits: Optional[List[InputSplit]] = None
            if i == 0:
                if first_splits is not None:
                    splits = first_splits
                    conf.input_paths = ["<resume:splits>"]
                elif first_records is not None:
                    splits = self._records_to_splits(first_records, first_sizes)
                    conf.input_paths = ["<resume:records>"]
            else:
                prev = stages[i - 1]
                if prev.conf.output_per_partition:
                    paths = [
                        JobRunner.partition_path(prev.conf.output_path, p)
                        for p in range(prev.conf.num_reduce_tasks)
                        if self.dfs.exists(
                            JobRunner.partition_path(prev.conf.output_path, p)
                        )
                    ]
                    conf.input_paths = paths
                    if stage.read_constraint is not None:
                        splits = self._constrained_splits(prev, stage)
                else:
                    conf.input_paths = [prev.conf.output_path]
            result = self.job_runner.run(conf, start_time=t, splits=splits)
            t = result.end_time
            if results:
                self._release_stage(stages[i - 1], results[-1])
            results.append(result)
        return results

    def _release_stage(self, stage: StageSpec, result: JobResult) -> None:
        """A non-final stage's output lives until the next stage has
        read it; then its record lists and its ``/_efind`` file (or
        part files) go, so a run leaves only its declared output."""
        result.output, result.output_sizes = [], []
        conf = stage.conf
        if conf.output_per_partition:
            for p in range(conf.num_reduce_tasks):
                self.dfs.delete(JobRunner.partition_path(conf.output_path, p))
        else:
            self.dfs.delete(conf.output_path)

    def _constrained_splits(
        self, prev: StageSpec, stage: StageSpec
    ) -> List[InputSplit]:
        """Index locality: one group of splits per index partition, each
        pinned to that partition's replica hosts."""
        scheme = stage.read_constraint
        splits: List[InputSplit] = []
        constraint: Dict[int, List[str]] = {}
        for p in range(prev.conf.num_reduce_tasks):
            path = JobRunner.partition_path(prev.conf.output_path, p)
            if not self.dfs.exists(path):
                continue
            hosts = scheme.locations(p % scheme.num_partitions)
            for split in self.dfs.splits(path):
                split.index = len(splits)
                constraint[split.index] = hosts
                splits.append(split)
        stage.conf.map_host_constraint = lambda i: constraint.get(i)
        return splits

    def _records_to_splits(
        self, records: List[Record], sizes: List[int]
    ) -> List[InputSplit]:
        """Chunk in-memory records into synthetic splits (used when
        resuming an aborted reduce phase); ``sizes`` are the sizes the
        shuffle buckets held for them."""
        return [
            InputSplit("<memory>", index, chunk, size, hosts=[], sizes=chunk_sizes)
            for index, (chunk, chunk_sizes, size) in enumerate(
                chunk_records(records, self.dfs.block_size, sizes)
            )
        ]

    # ------------------------------------------------------------------
    def _assign_paths(self, iconf, stages: List[StageSpec], tag: str) -> None:
        self._run_seq += 1
        base = f"/_efind/{iconf.name}/{self._run_seq}{tag}"
        for i, stage in enumerate(stages):
            if i == len(stages) - 1:
                stage.conf.output_path = iconf.output_path
            else:
                stage.conf.output_path = f"{base}/stage{i:02d}"

    def _package(
        self, iconf, initial_plan, final_plan, results: List[JobResult], start_time
    ) -> EFindJobResult:
        counters = Counters()
        for r in results:
            counters.merge(r.counters)
        return EFindJobResult(
            name=iconf.name,
            output=list(results[-1].output),
            start_time=start_time,
            end_time=results[-1].end_time,
            stage_results=results,
            plan=final_plan,
            initial_plan=initial_plan,
            counters=counters,
        )


def _coerce_strategy(value: Optional[Union[Strategy, str]]) -> Strategy:
    if isinstance(value, Strategy):
        return value
    if isinstance(value, str):
        for s in Strategy:
            if s.value == value or s.name.lower() == value.lower():
                return s
    raise PlanningError(f"mode='forced' requires a valid strategy, got {value!r}")
