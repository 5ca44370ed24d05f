"""Plan compiler: turns an :class:`IndexJobConf` plus an
:class:`AccessPlan` into a chain of physical MapReduce jobs.

Baseline/cache strategies splice ``pre -> lookup -> post`` into the
host job as one ``OperatorStage`` (Figure 6). Re-partitioning and index
locality cut the dataflow into multiple jobs around a *shuffling job*
(Figure 7); the cut point -- the job boundary -- is chosen to minimise
the materialised result size of the first job (Section 3.3):

* boundary ``pre``  -- materialise grouped carriers before the lookup
  (size ~ Spre); the next job's map does the lookups, de-duplicating
  adjacent equal keys. Index locality always uses this boundary, with
  the shuffle partitioned by the *index's* partition scheme and the next
  job's map tasks constrained to the partition's replica hosts.
* boundary ``idx``  -- the shuffle job's reduce performs one lookup per
  distinct key and materialises carriers with results (size ~ Sidx).
* boundary ``post`` -- additionally run postProcess inside the shuffle
  job's reduce (size ~ Spost); only available for the operator's last
  index in the access order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import PlanningError
from repro.core.costmodel import Placement, Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.plan import AccessPlan
from repro.core.statistics import OperatorStats, OperatorStatsAccumulator
from repro.core.strategy import (
    CarrierMaterializeReducer,
    GroupLookupReducer,
    KeyByIkFn,
    LookupSettings,
    OperatorStage,
    PostProcessFn,
    RecordMeter,
    SchemePartitioner,
)
from repro.indices.partitioning import PartitionScheme
from repro.mapreduce.api import HashPartitioner, Partitioner, Reducer
from repro.mapreduce.jobconf import JobConf
from repro.simcluster.cluster import Cluster


@dataclass
class StageSpec:
    """One physical MapReduce job of the compiled plan.

    ``read_constraint`` (index-locality): the runner must build this
    stage's input splits from the previous stage's per-partition output
    files and pin each split's map task to that partition's replica
    hosts.
    """

    conf: JobConf
    read_constraint: Optional[PartitionScheme] = None
    is_shuffle: bool = False
    label: str = ""


def choose_boundary(
    strategy: Strategy,
    stats: Optional[OperatorStats],
    is_last_index: bool,
    override: Optional[str] = None,
) -> str:
    """Pick the job boundary minimising the materialised size."""
    if strategy is Strategy.IDXLOC:
        # Lookups must run in the constrained map tasks of the next job.
        return "pre"
    if override is not None:
        if override == "post" and not is_last_index:
            raise PlanningError(
                "the 'post' boundary requires the index to be last in order"
            )
        return override
    if stats is None:
        return "idx"
    candidates = {"pre": stats.spre, "idx": stats.sidx}
    if is_last_index:
        candidates["post"] = stats.spost
    return min(candidates, key=candidates.get)


class _SmapMeter:
    """Glues the two RecordMeters around the user Mapper to the head
    operators' statistics accumulators (Smap collection, Section 4.2)."""

    def __init__(self, accumulators: List[OperatorStatsAccumulator]):
        self._accumulators = accumulators
        self._inputs = 0

    def on_inputs(self, count: int, nbytes: float) -> None:
        self._inputs = count

    def on_outputs(self, count: int, nbytes: float) -> None:
        for acc in self._accumulators:
            acc.record_map_output(self._inputs, nbytes)


class _StageBuilder:
    def __init__(
        self, iconf: IndexJobConf, cluster: Cluster, settings: LookupSettings,
        plan: AccessPlan, stats_registry: Dict[str, OperatorStatsAccumulator],
        op_stats: Dict[str, OperatorStats], boundary_override: Optional[str],
    ):
        self.iconf = iconf
        self.settings = settings
        self.plan = plan
        self.stats_registry = stats_registry
        self.op_stats = op_stats
        self.boundary_override = boundary_override
        self.stages: List[StageSpec] = []
        self.shuffle_parallelism = max(
            cluster.num_nodes, min(32, cluster.total_reduce_slots)
        )
        self._reset_stage()
        self._current_read_constraint: Optional[PartitionScheme] = None

    # ------------------------------------------------------------------
    def _reset_stage(self) -> None:
        self.map_chain: list = []
        self.reducer: Optional[Reducer] = None
        self.reduce_post: list = []
        self.num_reduce_tasks = 0
        self.partitioner: Partitioner = HashPartitioner()
        self.output_per_partition = False
        self.phase = "map"

    def append(self, fn) -> None:
        if self.phase == "map":
            self.map_chain.append(fn)
        else:
            self.reduce_post.append(fn)

    def close_stage(self, label: str, is_shuffle: bool = False) -> None:
        conf = JobConf(
            name=f"{self.iconf.name}/{label}",
            map_chain=list(self.map_chain),
            reducer=self.reducer,
            reduce_post_chain=list(self.reduce_post),
            num_reduce_tasks=self.num_reduce_tasks,
            partitioner=self.partitioner,
            max_map_tasks=self.iconf.max_map_tasks if not self.stages else None,
        )
        conf.output_per_partition = self.output_per_partition
        self.stages.append(
            StageSpec(conf, self._current_read_constraint, is_shuffle, label)
        )
        self._current_read_constraint = None
        self._reset_stage()

    # ------------------------------------------------------------------
    def emit_operator(self, op_id: str, op: IndexOperator) -> None:
        """One :class:`OperatorStage` per chain segment of the operator:
        a shuffle strategy ends the segment it meets and starts the next
        one after its shuffle job."""
        op_plan = self.plan.operators[op_id]
        stats_acc = self.stats_registry.get(op_id)
        stage: Optional[OperatorStage] = OperatorStage(op, op_id, stats_acc, pre=True)
        order = op_plan.order or list(range(op.num_indices))
        for pos, j in enumerate(order):
            strategy = op_plan.strategy_of(j)
            is_last = pos == len(order) - 1
            if strategy in (Strategy.REPART, Strategy.IDXLOC):
                boundary = choose_boundary(
                    strategy, self.op_stats.get(op_id), is_last, self.boundary_override
                )
                if stage.pre or stage.lookups:
                    self.append(stage)
                stage = self._cut_shuffle(
                    OperatorStage(op, op_id, stats_acc), j, strategy, boundary, is_last
                )
            else:
                # PARTIAL compiles like CACHE: covered keys go through
                # the lookup cache; the build gate inside the pipeline
                # sends uncovered keys down the scan-assisted path.
                stage.add_lookup(
                    j, self.settings,
                    use_cache=strategy in (Strategy.CACHE, Strategy.PARTIAL),
                    record_sidx=is_last,
                )
        if stage is not None:
            stage.post = True
            self.append(stage)

    def _cut_shuffle(
        self, after: OperatorStage, j: int, strategy: Strategy, boundary: str,
        is_last: bool,
    ) -> Optional[OperatorStage]:
        """Insert the shuffling job for index ``j``. Returns ``after``,
        the operator's stage after it, or None when the operator's
        postProcess was pulled into the shuffle job."""
        op, op_id, stats_acc = after.operator, after.operator_id, after.stats
        if self.phase == "reduce":
            # Tail operator: the dataflow up to preProcess stays in the
            # current (main-reduce) job; the shuffle is a fresh job.
            self.close_stage(label=f"main-before-{op_id}.{j}")
        self.map_chain.append(KeyByIkFn(op, op_id, j, strategy.value))
        scheme = None
        if strategy is Strategy.IDXLOC:
            scheme = op.accessors[j].partition_scheme
            if scheme is None:
                raise PlanningError(
                    f"index {j} of {op_id} exposes no partition scheme; "
                    "index locality is not applicable"
                )
            self.num_reduce_tasks = scheme.num_partitions
            self.partitioner = SchemePartitioner(scheme)
            self.output_per_partition = True
        else:  # re-partitioning
            self.num_reduce_tasks = self.shuffle_parallelism
            self.partitioner = HashPartitioner()
        if boundary == "pre":  # always so under index locality
            self.reducer = CarrierMaterializeReducer(j)
            self.close_stage(label=f"shuffle-{op_id}.{j}", is_shuffle=True)
            self._current_read_constraint = scheme
            after.add_lookup(
                j, self.settings, dedup_adjacent=True,
                assume_local=scheme is not None, record_sidx=is_last,
            )
            return after
        if boundary not in ("idx", "post"):
            raise PlanningError(f"unknown job boundary {boundary!r}")
        self.reducer = GroupLookupReducer(op, op_id, j, stats_acc, self.settings)
        if boundary == "post":
            self.reduce_post.append(PostProcessFn(op, op_id, stats_acc))
        self.close_stage(label=f"shuffle-{op_id}.{j}", is_shuffle=True)
        return None if boundary == "post" else after

    # ------------------------------------------------------------------
    def emit_mapper(self, smap_accumulators: List[OperatorStatsAccumulator]) -> None:
        mapper = self.iconf.mapper
        if mapper is None:
            return
        if self.phase != "map":
            raise PlanningError("mapper must precede the reduce step")
        if smap_accumulators:
            meter = _SmapMeter(smap_accumulators)
            self.map_chain.append(RecordMeter(meter.on_inputs, label="smap-in"))
            self.map_chain.append(mapper)
            self.map_chain.append(RecordMeter(meter.on_outputs, label="smap-out"))
        else:
            self.map_chain.append(mapper)

    def emit_reduce(self) -> None:
        if self.iconf.reducer is None:
            return
        if self.phase != "map":
            raise PlanningError("only one reduce step per EFind job")
        self.reducer = self.iconf.reducer
        self.num_reduce_tasks = self.iconf.num_reduce_tasks
        self.partitioner = self.iconf.partitioner
        self.phase = "reduce"

    def finish(self) -> List[StageSpec]:
        if self.map_chain or self.reducer or self.reduce_post or not self.stages:
            self.close_stage(label="main")
        return self.stages


def compile_plan(
    iconf: IndexJobConf,
    plan: AccessPlan,
    cluster: Cluster,
    stats_registry: Optional[Dict[str, OperatorStatsAccumulator]] = None,
    op_stats: Optional[Dict[str, OperatorStats]] = None,
    settings: LookupSettings = LookupSettings(),
    boundary_override: Optional[str] = None,
    start_at: str = "head",
) -> List[StageSpec]:
    """Compile ``iconf`` under ``plan`` into physical stages.

    ``start_at='reduce'`` compiles only the reduce step plus the tail
    operators -- used when resuming an aborted job mid-reduce (the map
    side is already done and its outputs are fed in directly).

    ``settings`` is handed to every lookup stage: results persist in
    its reuse store across the jobs compiled against it, and keys its
    build session does not cover yet take the scan-assisted path. The
    session's incremental builder is prepended to the first stage's map
    chain so builds piggyback on the input scan.
    """
    stats_registry = stats_registry or {}
    builder = _StageBuilder(
        iconf, cluster, settings, plan, stats_registry, op_stats or {},
        boundary_override,
    )
    emit = builder.emit_operator
    placed = iconf.placed_operators()

    if start_at == "head":
        if settings.build is not None:
            # The piggyback builder sees the raw input stream before any
            # operator stage; a mid-reduce resume never re-reads the
            # input, so it gets no builder.
            builder.map_chain.append(settings.build.builder_fn())
        smap_accs = [
            stats_registry[op_id]
            for op_id, placement, _ in placed
            if placement is Placement.BEFORE_MAP and op_id in stats_registry
        ]
        for op_id, placement, op in placed:
            if placement is Placement.BEFORE_MAP:
                emit(op_id, op)
        builder.emit_mapper(smap_accs)
        for op_id, placement, op in placed:
            if placement is Placement.BETWEEN_MAP_REDUCE:
                emit(op_id, op)
        builder.emit_reduce()
    elif start_at == "reduce":
        builder.emit_reduce()
    else:
        raise PlanningError(f"unknown start_at: {start_at!r}")

    for op_id, placement, op in placed:
        if placement is Placement.AFTER_REDUCE:
            emit(op_id, op)
    return builder.finish()
