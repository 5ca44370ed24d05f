"""The job runner: executes a :class:`JobConf` over the simulated
cluster, charging every task its simulated time.

Execution model
---------------
* Map phase: one task per input split, scheduled in waves over the map
  slots (data-local reads are cheaper). Each task runs the job's map
  chain over its records.
* Shuffle: map outputs are partitioned by the job's partitioner; each
  reduce task pays the network transfer for its buckets.
* Reduce phase: tasks group their input by key, run the reducer and the
  reduce-side chain, and write output to the DFS.

The runner supports cooperative *aborts* between waves: EFind's adaptive
optimizer (Section 4.3) uses them to stop an ongoing job after the first
wave of map (or reduce) tasks, reuse the completed tasks' results, and
continue under a better plan.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import DataFlowError, TaskCrashError
from repro.common.sizing import record_sizes
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.splits import InputSplit
from repro.mapreduce.api import OutputCollector, TaskContext
from repro.mapreduce.chain import run_chain_collected
from repro.mapreduce.counters import Counters
from repro.mapreduce.jobconf import JobConf
from repro.mapreduce.scheduler import SlotScheduler
from repro.mapreduce.shuffle import group_sized, partition_sized
from repro.mapreduce.speculation import SpeculationConfig, SpeculationEngine
from repro.obs.trace import (
    DEPTH_OP,
    DEPTH_PHASE,
    DEPTH_STAGE,
    DEPTH_TASK,
    DEPTH_WAVE,
    DRIVER_TRACK,
    WAVE_TRACK,
    slot_track,
)
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan

Record = Tuple[Any, Any]

#: Attempts a crashing task gets before the job fails (Hadoop's 4).
MAX_TASK_ATTEMPTS = 4

AbortCheck = Callable[[List["TaskRun"], int], bool]


@dataclass
class TaskRun:
    """Record of one executed task (the adaptive optimizer reads these
    per-task counters to compute sample variance).

    ``output_sizes`` and ``bucket_sizes`` hold one int per record of
    ``output`` and of each of ``buckets`` -- the sizes the task's
    collector recorded, whose sum ``output_bytes`` is -- so that whoever
    takes the records next (a reduce task, the DFS, a resumed job) does
    not walk them again. Each list lives as long as its consumer: once
    the job has returned the record lists are empty and the size lists
    None, except where a resume of an aborted job reads them (see
    :meth:`JobRunner._release_consumed`).
    """

    task_id: str
    kind: str
    node_host: str
    wave: int
    start: float
    duration: float
    end: float
    counters: Counters
    input_records: int
    input_bytes: int
    output_records: int
    output_bytes: int
    split_index: int = -1
    partition: int = -1
    output: List[Record] = field(default_factory=list)
    buckets: List[List[Record]] = field(default_factory=list)
    output_sizes: Optional[List[int]] = None
    bucket_sizes: Optional[List[List[int]]] = None
    # Pending TaskTraceBuffer; consumed (and cleared) once the scheduler
    # commit reveals the attempt's absolute start time.
    trace: Optional[Any] = None


@dataclass
class JobResult:
    """Outcome of (a possibly aborted run of) one MapReduce job.
    ``output_sizes[i]`` is the wire size of ``output[i]``."""

    job_name: str
    output: List[Record]
    counters: Counters
    start_time: float
    end_time: float
    map_runs: List[TaskRun] = field(default_factory=list)
    reduce_runs: List[TaskRun] = field(default_factory=list)
    aborted_phase: Optional[str] = None
    remaining_splits: List[InputSplit] = field(default_factory=list)
    remaining_partitions: List[int] = field(default_factory=list)
    map_phase_end: float = 0.0
    output_path: str = ""
    output_sizes: List[int] = field(default_factory=list)

    @property
    def sim_time(self) -> float:
        return self.end_time - self.start_time

    @property
    def aborted(self) -> bool:
        return self.aborted_phase is not None


class JobRunner:
    """Executes jobs against one cluster + DFS pair.

    ``fault_plan`` (optional) turns on the fault model: task slots on
    dead hosts disappear, per-host straggler factors stretch task
    durations, and injected task crashes are retried on another slot up
    to :data:`MAX_TASK_ATTEMPTS` times (Hadoop's semantics) instead of
    failing the job. Without a plan, execution is bit-identical to the
    fault-free runner.
    """

    def __init__(
        self,
        cluster: Cluster,
        dfs: DistributedFileSystem,
        fault_plan: Optional[FaultPlan] = None,
        obs=None,
        speculation: Optional[SpeculationConfig] = None,
        warm_hosts: Optional[Callable[[], Sequence[str]]] = None,
    ):
        self.cluster = cluster
        self.dfs = dfs
        self.fault_plan = fault_plan
        # Speculative execution (see repro.mapreduce.speculation). Off by
        # default: execution is then bit-identical to the pre-speculation
        # runner. ``warm_hosts`` optionally biases backup placement
        # toward reuse-warm hosts.
        self.speculation = speculation
        self.warm_hosts = warm_hosts
        # repro.obs.Observability (or None): obs=None takes the exact
        # pre-observability code paths.
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        # True while this runner's outermost ``run`` owns the collector's
        # freeze: each task attempt then starts with everything older
        # frozen, so a collection walks only what the attempt made
        # (DESIGN.md 5.18).
        self._owns_freeze = False

    # ------------------------------------------------------------------
    # Fault-model helpers
    # ------------------------------------------------------------------
    def _scheduler(self, kind: str, start_time: float) -> SlotScheduler:
        down = self.fault_plan.dead_hosts if self.fault_plan is not None else ()
        return SlotScheduler(
            self.cluster,
            kind,
            start_time=start_time,
            down_hosts=down,
            tracer=self._tracer,
        )

    def _straggled(self, duration: float, host: str) -> float:
        if self.fault_plan is None:
            return duration
        return self.cluster.time_model.straggled(
            duration, self.fault_plan.straggler_factor(host)
        )

    def _run_attempts(
        self,
        scheduler: SlotScheduler,
        execute: Callable[[Any, int], TaskRun],
        preferred_hosts: Optional[Sequence[str]] = None,
        allowed_hosts: Optional[Sequence[str]] = None,
        defer_trace: bool = False,
    ) -> TaskRun:
        """Run one task with retry-up-to-N semantics.

        A crashed attempt still occupies its slot for the simulated time
        it wasted; the re-execution prefers a different host. The
        successful run carries a ``fault.tasks_retried`` counter for
        each extra attempt it needed.

        With ``defer_trace`` the task span is *not* emitted here: the
        speculation engine owns emission (the attempt's final placement
        is only known once its wave seals).
        """
        failed_hosts: List[str] = []
        last_crash: Optional[TaskCrashError] = None
        for attempt in range(MAX_TASK_ATTEMPTS):
            slot = scheduler.acquire(
                preferred_hosts=preferred_hosts,
                allowed_hosts=allowed_hosts,
                avoid_hosts=failed_hosts,
            )
            if self._owns_freeze:
                gc.freeze()
            try:
                run = execute(slot.node, attempt)
            except TaskCrashError as crash:
                cstart, cend, cwave = scheduler.commit(
                    slot, self._straggled(crash.duration, slot.host)
                )
                if self._tracer is not None:
                    self._tracer.span(
                        "task.crash",
                        "fault",
                        slot_track(slot.host, scheduler.kind, slot.slot_index),
                        cstart,
                        cend,
                        DEPTH_TASK,
                        task=crash.task_id,
                        kind=scheduler.kind,
                        wave=cwave,
                        attempt=attempt,
                    )
                failed_hosts.append(slot.host)
                last_crash = crash
                continue
            raw_duration = run.duration
            run.duration = self._straggled(run.duration, slot.host)
            start, end, wave = scheduler.commit(slot, run.duration)
            run.start, run.end, run.wave = start, end, wave
            if attempt:
                run.counters.increment("fault", "tasks_retried", attempt)
            # Stash what speculation and deferred trace emission need to
            # reason about this attempt later (raw = pre-straggle time).
            run._raw_duration = raw_duration
            run._spec_attempt = attempt
            run._spec_failed_hosts = tuple(failed_hosts)
            run._spec_slot = slot
            if not defer_trace:
                self._emit_task_trace(run, slot.host, slot.slot_index)
            return run
        raise DataFlowError(
            f"task {last_crash.task_id if last_crash else '?'} failed "
            f"{MAX_TASK_ATTEMPTS} attempts; giving up"
        ) from last_crash

    def _emit_task_trace(
        self, run: TaskRun, host: str, slot_index: int, speculative: bool = False
    ) -> None:
        """Emit one attempt's task span and absorb its buffered profile.

        The buffer was recorded in raw (un-straggled) task-relative
        time; it is scaled to the attempt's final duration so the
        profile and its exact ``op_totals`` aggregates stay consistent
        with the span (straggled hosts stretch every in-task op, which
        is also what makes a slow host's excess lookup time visible to
        the straggler analyzer).
        """
        if self._tracer is None:
            run.trace = None
            return
        track = slot_track(host, run.kind, slot_index)
        buffer = run.trace
        raw = getattr(run, "_raw_duration", run.duration)
        if buffer is not None and raw > 0.0 and run.duration != raw:
            buffer.scale(run.duration / raw)
        args: Dict[str, Any] = dict(
            task=run.task_id,
            kind=run.kind,
            wave=run.wave,
            attempt=getattr(run, "_spec_attempt", 0),
            dropped_detail=buffer.dropped if buffer is not None else 0,
            # Exact per-op-name [count, seconds] aggregates from the
            # task buffer: unlike the detail spans these are never
            # capped, so offline attribution stays exact on
            # lookup-heavy tasks.
            op_totals=(
                {
                    name: list(entry)
                    for name, entry in sorted(buffer.totals.items())
                }
                if buffer is not None
                else {}
            ),
        )
        if speculative:
            args["speculative"] = True
        if self.obs.bus is not None:
            # A live session folds these deltas into its counter-derived
            # metrics (repro.obs.live.fold), from the recording or from
            # an exported trace.
            args["counters"] = {
                f"{group}.{name}": value
                for group, name, value in sorted(run.counters.items())
            }
        self._tracer.span(
            "task", "task", track, run.start, run.end, DEPTH_TASK, **args
        )
        self._tracer.absorb_task(buffer, run.start, track)
        run.trace = None

    # ------------------------------------------------------------------
    # Speculative execution (see repro.mapreduce.speculation)
    # ------------------------------------------------------------------
    def _speculation_engine(
        self, scheduler: SlotScheduler
    ) -> Optional[SpeculationEngine]:
        if self.speculation is None:
            return None
        return SpeculationEngine(
            self.speculation,
            scheduler,
            backup_duration=self._backup_duration,
            warm_hosts=self.warm_hosts,
            emit=self._emit_task_trace,
            tracer=self._tracer,
        )

    def _backup_duration(self, run: TaskRun, host: str) -> float:
        """Projected duration of a backup copy of ``run`` on ``host``:
        the primary's raw duration with its DFS-read cost swapped for
        the backup host's locality (map tasks), stretched by the backup
        host's straggler factor. Reduce shuffle cost is modelled as
        host-independent, so only the straggle factor changes there."""
        raw = getattr(run, "_raw_duration", run.duration)
        read_time = getattr(run, "_spec_read_time", None)
        if read_time is not None:
            local = host in run._spec_split_hosts
            if local != run._spec_read_local:
                raw = raw - read_time + self.cluster.time_model.dfs_retrieve_time(
                    run._spec_split_bytes, local=local
                )
        return self._straggled(raw, host)

    def _finish_speculation(
        self, engine: SpeculationEngine, conf: JobConf, phase: str
    ) -> Counters:
        """Seal the remaining waves; audit-note the phase when
        speculation actually changed its wave shape."""
        spec_counters = engine.finish()
        if self.obs is not None and engine.events:
            wins = [event for event in engine.events if event["won"]]
            if wins:
                self.obs.audit.note(
                    "speculation",
                    job=conf.name,
                    phase=phase,
                    sim_time=engine.scheduler.makespan(),
                    backups_launched=int(
                        spec_counters.get("spec", "backups_launched")
                    ),
                    backups_won=len(wins),
                    saved_seconds=sum(event["saved"] for event in wins),
                    tasks=[event["task"] for event in wins],
                )
        return spec_counters

    # ------------------------------------------------------------------
    def run(
        self,
        conf: JobConf,
        start_time: float = 0.0,
        splits: Optional[List[InputSplit]] = None,
        abort_check_map: Optional[AbortCheck] = None,
        abort_check_reduce: Optional[AbortCheck] = None,
    ) -> JobResult:
        """Run ``conf``; returns the job result.

        ``splits`` overrides split computation (used when resuming an
        aborted job on its remaining splits). The abort checks are
        invoked once, right after the first wave of the corresponding
        phase completes; returning True stops the phase and surfaces the
        un-started work in the result.

        The outermost call owns the collector's freeze when the caller
        froze nothing and left the collector on, and unfreezes on the
        way out, raise or return (DESIGN.md 5.18).
        """
        owns = (
            not self._owns_freeze
            and gc.isenabled()
            and gc.get_freeze_count() == 0
        )
        if owns:
            self._owns_freeze = True
        try:
            result = self._run_inner(
                conf, start_time, splits, abort_check_map, abort_check_reduce
            )
            self._release_consumed(result)
            if self._tracer is not None:
                self._emit_job_spans(result)
            return result
        finally:
            if owns:
                self._owns_freeze = False
                gc.unfreeze()

    def _run_inner(
        self,
        conf: JobConf,
        start_time: float,
        splits: Optional[List[InputSplit]],
        abort_check_map: Optional[AbortCheck],
        abort_check_reduce: Optional[AbortCheck],
    ) -> JobResult:
        conf.validate()
        tm = self.cluster.time_model
        if splits is None:
            splits = self.dfs.splits_for(conf.input_paths, conf.max_map_tasks)
        job_start = start_time + tm.job_startup_time
        counters = Counters()

        def map_hosts(split):
            if conf.map_host_constraint is None:
                return split.hosts, None
            return split.hosts, conf.map_host_constraint(split.index)

        map_runs, remaining, map_end, map_spec = self._run_phase(
            conf,
            "map",
            splits,
            lambda split: lambda node, attempt: self._execute_map_task(
                conf, split, node, tm, attempt
            ),
            map_hosts,
            job_start,
            abort_check_map,
        )
        for run in map_runs:
            counters.merge(run.counters)
        if map_spec is not None:
            counters.merge(map_spec)

        if remaining:
            return JobResult(
                job_name=conf.name,
                output=[],
                counters=counters,
                start_time=start_time,
                end_time=map_end,
                map_runs=map_runs,
                aborted_phase="map",
                remaining_splits=remaining,
                map_phase_end=map_end,
                output_path=conf.output_path,
            )

        if conf.num_reduce_tasks == 0:
            output, output_sizes = self._gather_output(map_runs)
            end = map_end
            if conf.materialize_output:
                self.dfs.write(conf.output_path, output, sizes=output_sizes)
            return JobResult(
                job_name=conf.name,
                output=output,
                counters=counters,
                start_time=start_time,
                end_time=end,
                map_runs=map_runs,
                map_phase_end=map_end,
                output_path=conf.output_path,
                output_sizes=output_sizes,
            )

        # Each bucket holds the same tuples as its task's output, which
        # has no reader left once the map phase is through.
        for run in map_runs:
            run.output, run.output_sizes = [], None
        side_buckets, side_sizes = partition_sized(
            conf.side_reduce_inputs,
            record_sizes(
                conf.side_reduce_inputs, conf.side_reduce_sizes, "side_reduce_inputs"
            ),
            conf.partitioner,
            conf.num_reduce_tasks,
        )
        reduce_runs, remaining_parts, job_end, reduce_spec = self._run_phase(
            conf,
            "reduce",
            list(range(conf.num_reduce_tasks)),
            lambda p: lambda node, attempt: self._execute_reduce_task(
                conf, p, map_runs, node, tm, side_buckets[p], side_sizes[p], attempt
            ),
            lambda p: (None, None),
            map_end,
            abort_check_reduce,
        )
        for run in reduce_runs:
            counters.merge(run.counters)
        if reduce_spec is not None:
            counters.merge(reduce_spec)

        output, output_sizes = self._gather_output(
            sorted(reduce_runs, key=lambda r: r.partition)
        )

        if remaining_parts:
            return JobResult(
                job_name=conf.name,
                output=output,
                counters=counters,
                start_time=start_time,
                end_time=job_end,
                map_runs=map_runs,
                reduce_runs=reduce_runs,
                aborted_phase="reduce",
                remaining_partitions=remaining_parts,
                map_phase_end=map_end,
                output_path=conf.output_path,
                output_sizes=output_sizes,
            )

        if conf.materialize_output:
            if conf.output_per_partition:
                for run in reduce_runs:
                    self.dfs.write(
                        self.partition_path(conf.output_path, run.partition),
                        run.output,
                        sizes=run.output_sizes,
                    )
            else:
                self.dfs.write(conf.output_path, output, sizes=output_sizes)
        return JobResult(
            job_name=conf.name,
            output=output,
            counters=counters,
            start_time=start_time,
            end_time=job_end,
            map_runs=map_runs,
            reduce_runs=reduce_runs,
            map_phase_end=map_end,
            output_path=conf.output_path,
            output_sizes=output_sizes,
        )

    @staticmethod
    def _release_consumed(result: JobResult) -> None:
        """A record list lives as long as its consumer (DESIGN.md 5.12):
        let go of the per-task lists, and the sizes beside them, that
        nobody can ask for once the job has returned.
        ``JobResult.output`` holds what the tasks of the last phase
        emitted, so only a resume reads a ``TaskRun``'s lists again:
        after a mid-map abort the finished map tasks' ``output``
        re-enters the new plan (Figure 10(a)), after a mid-reduce abort
        the pending partitions' buckets do (10(b)); a partition's
        buckets already went when its reduce task read them."""
        for run in result.map_runs:
            if result.aborted_phase != "map":
                run.output, run.output_sizes = [], None
            if result.aborted_phase != "reduce":
                run.buckets, run.bucket_sizes = [], None
        for run in result.reduce_runs:
            run.output, run.output_sizes = [], None

    @staticmethod
    def _gather_output(runs: Sequence[TaskRun]) -> Tuple[List[Record], List[int]]:
        """The tasks' outputs, and the sizes beside them, end to end."""
        output: List[Record] = []
        output_sizes: List[int] = []
        for run in runs:
            output.extend(run.output)
            output_sizes.extend(run.output_sizes)
        return output, output_sizes

    @staticmethod
    def partition_path(output_path: str, partition: int) -> str:
        """DFS path of one reduce partition's output file."""
        return f"{output_path}/part-{partition:05d}"

    # ------------------------------------------------------------------
    # Tracing (driver-side; reads a finished JobResult, charges nothing)
    # ------------------------------------------------------------------
    def _emit_job_spans(self, result: JobResult) -> None:
        tm = self.cluster.time_model
        job = result.job_name
        self._tracer.span(
            job,
            "stage",
            DRIVER_TRACK,
            result.start_time,
            result.end_time,
            DEPTH_STAGE,
            job=job,
            aborted=result.aborted_phase or "",
        )
        if result.map_runs:
            self._tracer.span(
                "map",
                "phase",
                DRIVER_TRACK,
                result.start_time + tm.job_startup_time,
                result.map_phase_end,
                DEPTH_PHASE,
                kind="map",
                job=job,
                tasks=len(result.map_runs),
            )
            self._emit_wave_spans(result.map_runs, "map", job)
        if result.reduce_runs:
            self._tracer.span(
                "reduce",
                "phase",
                DRIVER_TRACK,
                result.map_phase_end,
                result.end_time,
                DEPTH_PHASE,
                kind="reduce",
                job=job,
                tasks=len(result.reduce_runs),
            )
            self._emit_wave_spans(result.reduce_runs, "reduce", job)

    def _emit_wave_spans(self, runs: List[TaskRun], kind: str, job: str) -> None:
        by_wave: Dict[int, List[TaskRun]] = {}
        for run in runs:
            by_wave.setdefault(run.wave, []).append(run)
        for wave in sorted(by_wave):
            batch = by_wave[wave]
            self._tracer.span(
                f"{kind}.wave{wave}",
                "wave",
                WAVE_TRACK,
                min(r.start for r in batch),
                max(r.end for r in batch),
                DEPTH_WAVE,
                kind=kind,
                wave=wave,
                job=job,
                tasks=len(batch),
            )

    # ------------------------------------------------------------------
    # The phase protocol, shared by map and reduce
    # ------------------------------------------------------------------
    def _run_phase(
        self,
        conf: JobConf,
        kind: str,
        items: list,
        make_task: Callable[[Any], Callable[[Any, int], TaskRun]],
        hosts_of: Callable[[Any], Tuple[Any, Any]],
        floor: float,
        abort_check: Optional[AbortCheck],
    ) -> Tuple[List[TaskRun], list, float, Optional[Counters]]:
        """Run one task per item (split or partition) of a phase that
        starts at ``floor``: ``make_task(item)`` is the attempt body,
        ``hosts_of(item)`` its (preferred, allowed) hosts.
        ``abort_check`` is consulted once, when the first wave
        completes; on True the un-started items come back as the second
        result. Returns (runs, remaining items, phase end, ``spec.*``
        counters or None)."""
        scheduler = self._scheduler(kind, floor)
        engine = self._speculation_engine(scheduler)
        runs: List[TaskRun] = []
        first_wave = min(scheduler.num_slots, len(items))
        checked = abort_check is None
        remaining: list = []
        aborted = False

        for i, item in enumerate(items):
            preferred, allowed = hosts_of(item)
            # Host-constrained tasks (index-locality lookups) are never
            # speculated: their per-host lookup charges cannot be
            # re-modelled on a backup host.
            defer = engine is not None and allowed is None
            run = self._run_attempts(
                scheduler,
                make_task(item),
                preferred_hosts=preferred,
                allowed_hosts=allowed,
                defer_trace=defer,
            )
            runs.append(run)
            if defer:
                engine.observe(run, run._spec_slot)

            if not checked and len(runs) == first_wave:
                checked = True
                if abort_check(runs, len(items)):
                    aborted, remaining = True, list(items[i + 1 :])
                    break

        # Seal pending waves before the end is computed: on an abort a
        # won backup rescues the straggler ahead of the resume point.
        spec_counters = (
            self._finish_speculation(engine, conf, kind)
            if engine is not None
            else None
        )
        if aborted:
            end = max(r.end for r in runs)
        else:
            end = scheduler.makespan(floor=floor)
        return runs, remaining, end, spec_counters

    # ------------------------------------------------------------------
    # Map tasks
    # ------------------------------------------------------------------
    def _execute_map_task(self, conf, split, node, tm, attempt: int = 0) -> TaskRun:
        ctx = TaskContext(
            node, tm, task_id=f"{conf.name}-m{split.index:04d}", attempt=attempt
        )
        local = node.hostname in split.hosts
        read_time = tm.dfs_retrieve_time(split.size_bytes, local=local)
        if self.fault_plan is not None:
            crash_after = self.fault_plan.task_crash(ctx.task_id, attempt)
            if crash_after is not None:
                # The attempt dies after ~crash_after records: charge the
                # slot the fraction of the work it wasted, with no side
                # effects (the retry redoes the task from scratch).
                frac = min(1.0, crash_after / max(1, len(split.records)))
                wasted = tm.task_startup_time + frac * (
                    read_time + tm.cpu_time(len(split.records), split.size_bytes)
                )
                raise TaskCrashError(ctx.task_id, wasted)
        buffer = (
            self._tracer.task_buffer(ctx.task_id)
            if self._tracer is not None
            else None
        )
        if buffer is not None:
            buffer.base_offset = tm.task_startup_time + read_time
            buffer.rel_span(
                "dfs.read",
                "io",
                tm.task_startup_time,
                buffer.base_offset,
                DEPTH_OP,
                bytes=split.size_bytes,
                local=local,
            )
            ctx.trace = buffer
        collector = run_chain_collected(
            conf.map_chain, split.records, ctx, split.sizes
        )
        output, out_bytes = collector.records, collector.bytes
        cpu = tm.cpu_time(len(split.records), split.size_bytes)

        if conf.num_reduce_tasks > 0:
            buckets, bucket_sizes = partition_sized(
                output, collector.sizes, conf.partitioner, conf.num_reduce_tasks
            )
            spill = tm.disk_write_time(out_bytes) + len(output) * tm.sort_cpu_per_record
            if conf.combiner is not None:
                buckets, bucket_sizes, combine_time = self._combine_buckets(
                    conf, buckets, bucket_sizes, ctx, tm
                )
                spill += combine_time
        else:
            buckets, bucket_sizes = [], None
            spill = 0.0

        duration = tm.task_startup_time + read_time + cpu + ctx.charged_time + spill
        if buffer is not None and spill > 0:
            spill_start = buffer.base_offset + ctx.charged_time + cpu
            buffer.rel_span(
                "map.spill",
                "io",
                spill_start,
                spill_start + spill,
                DEPTH_OP,
                bytes=out_bytes,
            )
        ctx.counters.increment("task", "map_input_records", len(split.records))
        ctx.counters.increment("task", "map_input_bytes", split.size_bytes)
        ctx.counters.increment("task", "map_output_records", len(output))
        ctx.counters.increment("task", "map_output_bytes", out_bytes)
        run = TaskRun(
            task_id=ctx.task_id,
            kind="map",
            node_host=node.hostname,
            wave=0,
            start=0.0,
            duration=duration,
            end=duration,
            counters=ctx.counters,
            input_records=len(split.records),
            input_bytes=split.size_bytes,
            output_records=len(output),
            output_bytes=out_bytes,
            split_index=split.index,
            output=output,
            buckets=buckets,
            output_sizes=collector.sizes,
            bucket_sizes=bucket_sizes,
            trace=buffer,
        )
        # DFS-read profile for speculation: a backup copy on another
        # host pays that host's read locality instead of this one's.
        run._spec_read_time = read_time
        run._spec_read_local = local
        run._spec_split_hosts = tuple(split.hosts)
        run._spec_split_bytes = split.size_bytes
        return run

    def _combine_buckets(self, conf, buckets, bucket_sizes, ctx, tm):
        """Run the map-side combiner on each partition bucket (Hadoop's
        combiner: a reducer applied before the shuffle to shrink it),
        each group shown its sizes as ``ctx.group_bytes`` as in the
        reduce loop.

        Returns the combined buckets, the sizes of their records and
        the simulated cost.
        """
        combined: List[List[Record]] = []
        combined_sizes: List[List[int]] = []
        total_in = 0
        combiner = conf.combiner
        for bucket, sizes in zip(buckets, bucket_sizes):
            groups, sizes_of = group_sized(bucket, sizes)
            collector = OutputCollector()
            combiner.start(ctx)
            for key, values in groups:
                ctx.group_bytes = sizes_of[key]
                combiner.reduce(key, values, collector, ctx)
            ctx.group_bytes = None
            combiner.finish(collector, ctx)
            combined.append(collector.records)
            combined_sizes.append(collector.sizes)
            total_in += len(bucket)
        combine_time = total_in * tm.sort_cpu_per_record + tm.cpu_time(total_in)
        ctx.counters.increment("task", "combine_input_records", total_in)
        ctx.counters.increment(
            "task", "combine_output_records", sum(len(b) for b in combined)
        )
        return combined, combined_sizes, combine_time

    # ------------------------------------------------------------------
    # Reduce tasks
    # ------------------------------------------------------------------
    def sized_reduce_input(
        self, map_runs: Sequence[TaskRun], partition: int
    ) -> Tuple[List[Record], List[int]]:
        """All records destined to one reduce partition, and the sizes
        their map tasks' collectors recorded for them. A partition
        outside ``[0, len(buckets))`` raises; one whose reduce task has
        read it, or whose job has returned, comes back empty."""
        records: List[Record] = []
        sizes: List[int] = []
        for run in map_runs:
            if run.buckets:
                if not 0 <= partition < len(run.buckets):
                    raise DataFlowError(
                        f"map task {run.task_id} produced {len(run.buckets)} "
                        f"shuffle buckets but reduce partition {partition} was "
                        f"requested (a resumed job mixing map runs from plans "
                        f"with different reduce-task counts asks past the end)"
                    )
                records.extend(run.buckets[partition])
                sizes.extend(run.bucket_sizes[partition])
        return records, sizes

    def _execute_reduce_task(
        self,
        conf,
        partition,
        map_runs,
        node,
        tm,
        side_records=(),
        side_sizes=(),
        attempt: int = 0,
    ) -> TaskRun:
        ctx = TaskContext(
            node, tm, task_id=f"{conf.name}-r{partition:04d}", attempt=attempt
        )
        records, sizes = self.sized_reduce_input(map_runs, partition)
        records.extend(side_records)
        sizes.extend(side_sizes)
        in_bytes = sum(sizes)
        # Shuffle transfer: on average (N-1)/N of the input crosses the
        # network; the remainder is node-local map output.
        remote_fraction = max(0.0, 1.0 - 1.0 / self.cluster.num_nodes)
        transfer = tm.transfer_time(in_bytes * remote_fraction)
        merge = len(records) * tm.sort_cpu_per_record
        if self.fault_plan is not None:
            crash_after = self.fault_plan.task_crash(ctx.task_id, attempt)
            if crash_after is not None:
                frac = min(1.0, crash_after / max(1, len(records)))
                wasted = tm.task_startup_time + frac * (
                    transfer + merge + tm.cpu_time(len(records), in_bytes)
                )
                raise TaskCrashError(ctx.task_id, wasted)
        # This attempt commits (a crashed one left the buckets for its
        # retry; a speculative backup is modelled, never re-run): bucket
        # ``partition`` has had its one reader.
        for run in map_runs:
            if run.buckets:
                run.buckets[partition] = []
                run.bucket_sizes[partition] = []
        buffer = (
            self._tracer.task_buffer(ctx.task_id)
            if self._tracer is not None
            else None
        )
        if buffer is not None:
            fetch_end = tm.task_startup_time + transfer
            buffer.base_offset = fetch_end + merge
            buffer.rel_span(
                "shuffle.fetch",
                "shuffle",
                tm.task_startup_time,
                fetch_end,
                DEPTH_OP,
                bytes=in_bytes,
                remote_fraction=remote_fraction,
            )
            if merge > 0:
                buffer.rel_span(
                    "shuffle.merge",
                    "shuffle",
                    fetch_end,
                    buffer.base_offset,
                    DEPTH_OP,
                    records=len(records),
                )
            ctx.trace = buffer

        collector = OutputCollector()
        reducer = conf.reducer
        reducer.start(ctx)
        groups, sizes_of = group_sized(records, sizes)
        for key, values in groups:
            ctx.group_bytes = sizes_of[key]
            reducer.reduce(key, values, collector, ctx)
        ctx.group_bytes = None
        reducer.finish(collector, ctx)
        if conf.reduce_post_chain:
            collector = run_chain_collected(conf.reduce_post_chain, collector, ctx)
        output, out_bytes = collector.records, collector.bytes

        cpu = tm.cpu_time(len(records), in_bytes)
        store = tm.dfs_store_time(out_bytes) if conf.materialize_output else 0.0
        duration = (
            tm.task_startup_time + transfer + merge + cpu + ctx.charged_time + store
        )
        if buffer is not None and store > 0:
            store_start = buffer.base_offset + ctx.charged_time + cpu
            buffer.rel_span(
                "dfs.store",
                "io",
                store_start,
                store_start + store,
                DEPTH_OP,
                bytes=out_bytes,
            )
        ctx.counters.increment("task", "reduce_input_records", len(records))
        ctx.counters.increment("task", "reduce_input_bytes", in_bytes)
        ctx.counters.increment("task", "reduce_output_records", len(output))
        ctx.counters.increment("task", "reduce_output_bytes", out_bytes)
        return TaskRun(
            task_id=ctx.task_id,
            kind="reduce",
            node_host=node.hostname,
            wave=0,
            start=0.0,
            duration=duration,
            end=duration,
            counters=ctx.counters,
            input_records=len(records),
            input_bytes=in_bytes,
            output_records=len(output),
            output_bytes=out_bytes,
            partition=partition,
            output=output,
            output_sizes=collector.sizes,
            trace=buffer,
        )
