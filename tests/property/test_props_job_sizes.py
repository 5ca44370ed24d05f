"""Property: a size kept beside a record list *is* the size of its record.

``test_props_chain_sizes`` holds one chain to "a computed size is the
size a walk finds"; here its generators drive whole jobs. Sizes now
outlive the collector that recorded them -- they sit beside every record
list the engine keeps: a task's output, each shuffle bucket, each DFS
block and the splits cut from it (DESIGN.md 5.12) -- and every consumer
reads them instead of walking. So at every seam a record list crosses,
in jobs run through ``EFindRunner`` under each forced strategy and
through both mid-job re-plans, each stored size must equal
``sizeof_pair`` of its record and each stored sum the sum of its sizes.
"""

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.sizing import sizeof_pair, sizeof_records
from repro.core import runner as runner_module
from repro.core.accessor import IndexAccessor
from repro.core.adaptive import ReplanDecision
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.optimizer import forced_plan
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer, OutputCollector
from repro.mapreduce.jobconf import JobConf
from repro.mapreduce.runtime import JobRunner
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan, TaskCrash

from test_props_chain_sizes import PRE_MODES, GeneratedOperator, lookup_keys, values

# ``True == 1`` and ``False == 0``: keys that share a shuffle group
# without sharing a size.
job_keys = st.one_of(lookup_keys, st.booleans())
STRATEGIES = [Strategy.BASELINE, Strategy.CACHE, Strategy.REPART, Strategy.IDXLOC]


def walked(records):
    return [sizeof_pair(key, value) for key, value in records]


@st.composite
def jobs(draw, max_keys=3):
    """Index contents for m indices, and up to 40 records -- several
    splits, so several map waves on the two-slot cluster below -- each
    carrying 0..``max_keys`` lookup keys per index."""
    m = draw(st.integers(1, 3))
    mappings = [
        draw(st.dictionaries(job_keys, st.lists(values, max_size=3), max_size=6))
        for _ in range(m)
    ]
    key_lists = st.tuples(
        *[st.lists(job_keys, max_size=max_keys).map(tuple) for _ in range(m)]
    )
    records = draw(
        st.lists(
            st.tuples(
                st.one_of(st.text(max_size=4), st.integers(0, 2)),
                st.tuples(values, key_lists),
            ),
            max_size=40,
        )
    )
    return mappings, records


class Env:
    """A two-node cluster (one map and one reduce slot each), a DFS with
    blocks of a few records, the generated input and operator."""

    def __init__(self, mappings, records, mode):
        self.cluster = Cluster(
            num_nodes=2, map_slots_per_node=1, reduce_slots_per_node=1
        )
        self.dfs = DistributedFileSystem(self.cluster, block_size=160)
        self.dfs.write("/in", records)
        self.operator = GeneratedOperator(mode)
        for j, mapping in enumerate(mappings):
            kv = DistributedKVStore(
                f"idx{j}", self.cluster, num_partitions=3, service_time=1e-3
            )
            for ik, results in mapping.items():
                for result in results:
                    kv.put(ik, result)
            self.operator.add_index(IndexAccessor(kv))

    def job(self, placement, max_map_tasks=None):
        job = IndexJobConf("gen", max_map_tasks=max_map_tasks)
        job.set_input_paths("/in").set_output_path("/out")
        job.set_mapper(FnMapper(lambda k, v: [(k, v)], "ident"))
        if placement != "head-map-only":
            job.set_reducer(
                FnReducer(lambda k, vs: [(k, v) for v in vs], "fan"),
                num_reduce_tasks=5,
            )
        if placement.startswith("head"):
            job.add_head_index_operator(self.operator)
        elif placement == "body":
            job.add_body_index_operator(self.operator)
        else:
            job.add_tail_index_operator(self.operator)
        return job


class SeamAudit:
    """Wraps a ``JobRunner``'s two task bodies, and ``collect`` and
    ``extend``, with the checks; counts what it saw so a test can tell a
    seam was met (``sized_collects``: pairs handed over with a size,
    by either)."""

    def __init__(self):
        self.splits = self.memory_splits = self.buckets = self.side_records = 0
        self.sized_collects = self.task_outputs = 0

    @contextmanager
    def watching(self, job_runner, dfs):
        map_task, reduce_task = (
            job_runner._execute_map_task,
            job_runner._execute_reduce_task,
        )
        collect, extend = OutputCollector.collect, OutputCollector.extend
        audit = self

        def checked_collect(self, key, value, nbytes=None):
            if nbytes is not None:
                assert nbytes == sizeof_pair(key, value), (key, value)
                audit.sized_collects += 1
            collect(self, key, value, nbytes)

        def checked_extend(self, records, sizes):
            assert list(sizes) == walked(records), records
            audit.sized_collects += len(records)
            extend(self, records, sizes)

        def checked_map_task(conf, split, *rest):
            assert split.sizes == walked(split.records), split.path
            assert split.size_bytes == sum(split.sizes)
            self.splits += 1
            self.memory_splits += split.path == "<memory>"
            return self.check_run(map_task(conf, split, *rest))

        def checked_reduce_task(
            conf, partition, map_runs, node, tm, side_records, side_sizes, *rest
        ):
            fetched = list(side_records)
            assert list(side_sizes) == walked(side_records)
            self.side_records += len(side_records)
            for run in map_runs:
                if run.buckets:
                    bucket = run.buckets[partition]
                    assert run.bucket_sizes[partition] == walked(bucket)
                    fetched.extend(bucket)
                    self.buckets += 1
            run = reduce_task(
                conf, partition, map_runs, node, tm, side_records, side_sizes, *rest
            )
            assert run.input_bytes == sizeof_records(fetched)
            assert run.counters.get("task", "reduce_input_bytes") == run.input_bytes
            return self.check_run(run)

        job_runner._execute_map_task = checked_map_task
        job_runner._execute_reduce_task = checked_reduce_task
        OutputCollector.collect = checked_collect
        OutputCollector.extend = checked_extend
        try:
            yield self
        finally:
            OutputCollector.collect, OutputCollector.extend = collect, extend
            del job_runner._execute_map_task, job_runner._execute_reduce_task
        for path in dfs.listdir():
            for block in dfs.meta(path).blocks:
                assert block.sizes == walked(block.records), path
                assert block.size_bytes == sum(block.sizes), path

    def check_run(self, run):
        assert run.output_sizes == walked(run.output), run.task_id
        assert run.output_bytes == sum(run.output_sizes)
        for bucket, sizes in zip(run.buckets, run.bucket_sizes or ()):
            assert sizes == walked(bucket), run.task_id
        self.task_outputs += 1
        return run

    def check_result(self, result):
        """What a finished (or aborted) job still holds."""
        for stage in result.stage_results:
            assert stage.output_sizes == walked(stage.output)
            for run in stage.map_runs + stage.reduce_runs:
                if run.output_sizes is not None:
                    assert run.output_sizes == walked(run.output)
                for bucket, sizes in zip(run.buckets, run.bucket_sizes or ()):
                    assert sizes == walked(bucket)


def at_most_one_key(records):
    """Re-partitioning and index locality shuffle a record under *the*
    key of the index: at most one (duplicates across records stay)."""
    return [
        (key, (payload, tuple(keys[:1] for keys in key_lists)))
        for key, (payload, key_lists) in records
    ]


class TestStoredSizesAreWalkedSizes:
    @given(
        jobs(),
        st.sampled_from(PRE_MODES),
        st.sampled_from(STRATEGIES),
        st.sampled_from(["head", "head-map-only", "body", "tail"]),
        st.sampled_from([1, 7]),
        st.sampled_from([None, "pre", "idx"]),
        st.sampled_from([None, 2]),
    )
    @settings(max_examples=120, deadline=None)
    def test_forced_strategies(
        self, job, mode, strategy, placement, batch_size, boundary, max_map_tasks
    ):
        mappings, records = job
        shuffles = strategy in (Strategy.REPART, Strategy.IDXLOC)
        if shuffles:
            records = at_most_one_key(records)
        env = Env(mappings, records, mode)
        runner = EFindRunner(env.cluster, env.dfs, batch_size=batch_size, cache_capacity=4)
        audit = SeamAudit()
        with audit.watching(runner.job_runner, env.dfs):
            result = runner.run(
                env.job(placement, max_map_tasks),
                mode="forced",
                forced_strategy=strategy,
                boundary_override=boundary,
            )
        audit.check_result(result)
        assert audit.splits >= len(result.stage_results)
        if shuffles:
            # One shuffle job per index, each read sized by the next.
            assert len(result.stage_results) > len(mappings)
            if records:
                assert audit.buckets and audit.sized_collects

    @given(
        jobs(max_keys=1),
        st.sampled_from(PRE_MODES),
        st.sampled_from(["map", "map-only", "reduce"]),
        st.sampled_from(STRATEGIES),
        st.sampled_from([1, 7]),
    )
    @settings(max_examples=120, deadline=None)
    def test_dynamic_replans(self, job, mode, phase, new_strategy, batch_size):
        """Both resume paths of Figure 10, taken whenever there is a
        second wave to resume: the first wave's outputs re-enter the new
        plan as side reduce inputs (or join the rewritten output), an
        aborted reduce phase's pending buckets as ``<memory>`` splits."""
        mappings, records = job
        env = Env(mappings, records, mode)
        placement = {"map": "head", "map-only": "head-map-only", "reduce": "tail"}[phase]
        iconf = env.job(placement)

        def replan_in_first_wave(iconf, plan, registry, env_, at_phase, *args, **kw):
            if at_phase != phase.split("-")[0]:
                return None
            new_plan = forced_plan(iconf.operator_specs(), new_strategy)
            return ReplanDecision(new_plan, {}, current_cost=1.0, new_cost=0.0)

        runner = EFindRunner(env.cluster, env.dfs, batch_size=batch_size, cache_capacity=4)
        audit = SeamAudit()
        evaluate = runner_module.evaluate_replan
        runner_module.evaluate_replan = replan_in_first_wave
        try:
            with audit.watching(runner.job_runner, env.dfs):
                result = runner.run(iconf, mode="dynamic")
        finally:
            runner_module.evaluate_replan = evaluate
        audit.check_result(result)
        first = result.stage_results[0]
        if phase == "reduce":
            assert result.replanned and first.aborted_phase == "reduce"
            assert audit.memory_splits
        elif len(env.dfs.meta("/in").blocks) > 2:  # more splits than slots
            assert result.replanned and first.aborted_phase == "map"
            done = sum(run.output_records for run in first.map_runs)
            if phase == "map":  # the new plan's Reduce fetches them all
                assert audit.side_records == done
        for block in env.dfs.meta("/out").blocks:
            assert block.sizes == walked(block.records)

    @given(jobs(), st.sampled_from(STRATEGIES))
    @settings(max_examples=40, deadline=None)
    def test_retried_tasks(self, job, strategy):
        """A crashed attempt leaves nothing behind: the retry reads the
        same sized split or buckets and the seams hold as before."""
        mappings, records = job
        if strategy in (Strategy.REPART, Strategy.IDXLOC):
            records = at_most_one_key(records)

        def run(fault_plan):
            env = Env(mappings, records, "pass")
            runner = EFindRunner(env.cluster, env.dfs, fault_plan=fault_plan)
            audit = SeamAudit()
            with audit.watching(runner.job_runner, env.dfs):
                result = runner.run(
                    env.job("head"), mode="forced", forced_strategy=strategy
                )
            audit.check_result(result)
            return result

        clean = run(None)
        first_tasks = [
            runs[0].task_id
            for stage in clean.stage_results
            for runs in (stage.map_runs, stage.reduce_runs)
            if runs
        ]
        crashes = [TaskCrash(task_id, after_records=1) for task_id in first_tasks]
        retried = run(FaultPlan(task_crashes=crashes))
        assert retried.counters.get("fault", "tasks_retried") == len(first_tasks)
        assert retried.output == clean.output


class TestPlainJobs:
    """The engine's own seams, with no lookup stage in the way."""

    records = st.lists(
        st.tuples(st.sampled_from(["a", "bb", "é", 0, 1, True, None]), values),
        max_size=40,
    )

    @given(records, st.sampled_from([None, 1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_combiner_and_coalesced_splits(self, records, max_map_tasks):
        cluster = Cluster(num_nodes=2, map_slots_per_node=1, reduce_slots_per_node=1)
        dfs = DistributedFileSystem(cluster, block_size=120)
        dfs.write("/in", records)
        keep_first_two = FnReducer(lambda k, vs: [(k, v) for v in vs[:2]], "first2")
        conf = JobConf(
            name="combine",
            input_paths=["/in"],
            output_path="/out",
            map_chain=[FnMapper(lambda k, v: [(k, v), (k, (v, "again"))])],
            combiner=keep_first_two,
            reducer=keep_first_two,
            num_reduce_tasks=3,
            max_map_tasks=max_map_tasks,
        )
        job_runner = JobRunner(cluster, dfs)
        audit = SeamAudit()
        with audit.watching(job_runner, dfs):
            result = job_runner.run(conf)
        assert result.output_sizes == walked(result.output)
        if max_map_tasks is not None:
            assert audit.splits <= max_map_tasks
        if records:
            assert audit.buckets
            assert result.counters.get("task", "combine_input_records") == 2 * len(
                records
            )
