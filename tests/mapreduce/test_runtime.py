"""Integration tests for the job runner."""

from dataclasses import replace

import pytest

from repro.common.errors import DataFlowError
from repro.common.sizing import sizeof_pair, sizeof_records
from repro.mapreduce.api import (
    ChainedFunction,
    FnMapper,
    FnReducer,
    IdentityMapper,
    IdentityReducer,
)
from repro.mapreduce.jobconf import JobConf
from repro.mapreduce.runtime import JobRunner


def wordcount_conf(**overrides):
    def tokenize(k, v):
        for w in v.split():
            yield (w, 1)

    def total(k, vs):
        yield (k, sum(vs))

    conf = JobConf(
        name="wc",
        input_paths=["/in"],
        output_path="/out",
        map_chain=[FnMapper(tokenize)],
        reducer=FnReducer(total),
        num_reduce_tasks=3,
    )
    for key, value in overrides.items():
        setattr(conf, key, value)
    return conf


def as_returned(runner):
    """Every task run as its task body returned it, lists and all: the
    job lets go of a run's ``output`` and ``buckets`` once their
    consumer has read them (DESIGN.md 5.12), so a test that reads them
    after the job reads this snapshot."""
    runs = []
    for name in ("_execute_map_task", "_execute_reduce_task"):

        def spy(*args, execute=getattr(runner, name)):
            run = execute(*args)
            runs.append(
                replace(
                    run,
                    output=list(run.output),
                    buckets=[list(bucket) for bucket in run.buckets],
                )
            )
            return run

        setattr(runner, name, spy)
    return runs


@pytest.fixture
def loaded(cluster, dfs):
    filler = "pad" * 20
    records = [
        (i, f"alpha beta {'gamma' if i % 2 else 'delta'} {filler}{i}")
        for i in range(2000)
    ]
    dfs.write("/in", records)
    return JobRunner(cluster, dfs)


class TestMapReduceJob:
    def test_wordcount_counts(self, loaded, dfs):
        res = loaded.run(wordcount_conf())
        counts = dict(res.output)
        assert counts["alpha"] == 2000
        assert counts["gamma"] == 1000
        assert counts["delta"] == 1000

    def test_output_materialized(self, loaded, dfs):
        loaded.run(wordcount_conf())
        assert dict(dfs.read("/out"))["alpha"] == 2000

    def test_no_materialize(self, loaded, dfs):
        res = loaded.run(wordcount_conf(materialize_output=False))
        assert res.output and not dfs.exists("/out")

    def test_sim_time_positive_and_ordered(self, loaded):
        res = loaded.run(wordcount_conf())
        assert res.sim_time > 0
        assert res.end_time > res.map_phase_end > 0

    def test_start_time_offsets_everything(self, loaded):
        a = loaded.run(wordcount_conf())
        b = loaded.run(wordcount_conf(), start_time=100.0)
        assert b.end_time == pytest.approx(100.0 + a.end_time)

    def test_counters_aggregated(self, loaded):
        res = loaded.run(wordcount_conf())
        assert res.counters.get("task", "map_input_records") == 2000
        assert res.counters.get("task", "map_output_records") == 8000

    def test_task_runs_recorded(self, loaded):
        res = loaded.run(wordcount_conf())
        assert len(res.map_runs) >= 2
        assert len(res.reduce_runs) == 3
        for run in res.map_runs:
            assert run.duration > 0
            assert run.end >= run.start

    def test_reduce_partitions_distinct(self, loaded):
        res = loaded.run(wordcount_conf())
        assert sorted(r.partition for r in res.reduce_runs) == [0, 1, 2]


class TestMapOnlyJob:
    def test_map_only_output(self, loaded):
        conf = wordcount_conf(reducer=None, num_reduce_tasks=0)
        res = loaded.run(conf)
        assert len(res.output) == 8000
        assert not res.reduce_runs

    def test_map_only_no_buckets(self, loaded):
        conf = wordcount_conf(reducer=None, num_reduce_tasks=0)
        res = loaded.run(conf)
        assert all(not r.buckets for r in res.map_runs)


class TestOutputBytes:
    """A task's ``output_bytes`` is what its last collector summed while
    the pairs were emitted -- equal to sizing the output afresh, without
    walking it a second time."""

    def test_equals_sizing_the_output(self, loaded):
        runs = as_returned(loaded)
        res = loaded.run(wordcount_conf())
        assert len(runs) == len(res.map_runs) + len(res.reduce_runs)
        for run in runs:
            assert run.output_bytes == sizeof_records(run.output) > 0

    def test_empty_map_chain_and_reduce_post_chain(self, loaded):
        conf = wordcount_conf(
            map_chain=[],
            reducer=IdentityReducer(),
            reduce_post_chain=[IdentityMapper()],
        )
        runs = as_returned(loaded)
        res = loaded.run(conf)
        assert sum(r.output_records for r in res.reduce_runs) == 2000
        assert len(runs) == len(res.map_runs) + len(res.reduce_runs)
        for run in runs:
            assert run.output_bytes == sizeof_records(run.output) > 0

    def test_sizes_reach_the_stages_of_map_and_reduce_post_chains(self, loaded):
        """Split records arrive with the sizes their blocks kept; from
        there on -- the reducer's collector included -- each stage is
        told its input's size."""
        seen = {"map-head": [], "map-tail": [], "reduce-post": []}

        class Probe(ChainedFunction):
            def __init__(self, where):
                self.where = where

            def process(self, key, value, collector, ctx):
                seen[self.where].append((ctx.input_bytes, sizeof_pair(key, value)))
                collector.collect(key, value, ctx.input_bytes)

        conf = wordcount_conf()
        conf.map_chain = [Probe("map-head"), *conf.map_chain, Probe("map-tail")]
        conf.reduce_post_chain = [Probe("reduce-post")]
        runs = as_returned(loaded)
        res = loaded.run(conf)
        assert len(seen["map-head"]) == 2000 and len(seen["map-tail"]) == 8000
        for where in ("map-head", "map-tail", "reduce-post"):
            assert seen[where] and all(known == walked for known, walked in seen[where])
        assert len(runs) == len(res.map_runs) + len(res.reduce_runs)
        for run in runs:
            assert run.output_bytes == sizeof_records(run.output) > 0

    def test_map_output_not_walked_again(self, cluster, dfs):
        class Counted:
            walks = 0

            def wire_size(self):
                Counted.walks += 1
                return 50

        dfs.write("/in", [(i, Counted()) for i in range(40)])
        conf = JobConf(
            name="walks",
            input_paths=["/in"],
            output_path="/out",
            map_chain=[IdentityMapper()],
            num_reduce_tasks=0,
            materialize_output=False,
        )
        Counted.walks = 0
        runner = JobRunner(cluster, dfs)
        runs = as_returned(runner)
        res = runner.run(conf)
        assert Counted.walks == 0  # the blocks carry sizes; the mapper hands them on
        assert len(runs) == len(res.map_runs)
        for run in runs:
            assert run.output_bytes == sizeof_records(run.output)
        assert sum(r.output_bytes for r in res.map_runs) == 40 * (8 + 50)


class TestSizesOutliveTheTask:
    """A task's record lists keep the sizes its collector recorded for
    as long as someone can still ask for them, and go, sizes and all,
    once no one can (DESIGN.md 5.12)."""

    @staticmethod
    def walked(records):
        return [sizeof_pair(*record) for record in records]

    def test_reduce_input_bytes_is_the_sum_of_the_bucket_sizes(self, loaded):
        execute = loaded._execute_reduce_task
        partitions_checked = []
        fetched_bytes = {}

        def spy(conf, partition, map_runs, *rest):
            for run in map_runs:
                assert run.bucket_sizes[partition] == self.walked(
                    run.buckets[partition]
                )
            partitions_checked.append(partition)
            fetched_bytes[partition] = sizeof_records(
                loaded.sized_reduce_input(map_runs, partition)[0]
            )
            return execute(conf, partition, map_runs, *rest)

        loaded._execute_reduce_task = spy
        res = loaded.run(wordcount_conf())
        assert partitions_checked == [0, 1, 2]
        for run in res.reduce_runs:
            assert run.input_bytes == fetched_bytes[run.partition]
        assert res.output_sizes == self.walked(res.output)

    def test_a_finished_job_drops_what_no_one_can_ask_for(self, loaded):
        res = loaded.run(wordcount_conf())
        assert res.output_sizes == self.walked(res.output)
        for run in res.map_runs:
            assert run.buckets == [] and run.output == []
            assert run.output_sizes is None and run.bucket_sizes is None
        assert all(
            run.output == [] and run.output_sizes is None for run in res.reduce_runs
        )

    def test_map_abort_keeps_output_sizes_for_the_resume(self, loaded):
        res = loaded.run(wordcount_conf(), abort_check_map=lambda runs, total: True)
        assert res.aborted_phase == "map"
        for run in res.map_runs:
            assert run.output_sizes == self.walked(run.output)
            assert run.bucket_sizes is None  # the resume re-partitions output

    def test_reduce_abort_keeps_bucket_sizes_for_the_resume(self, loaded):
        res = loaded.run(
            wordcount_conf(num_reduce_tasks=12),
            abort_check_reduce=lambda runs, total: True,
        )
        assert res.aborted_phase == "reduce" and res.remaining_partitions
        for p in res.remaining_partitions:
            records, sizes = loaded.sized_reduce_input(res.map_runs, p)
            assert sizes == self.walked(records)
        for run in res.map_runs:
            assert all(
                sizes == self.walked(bucket)
                for bucket, sizes in zip(run.buckets, run.bucket_sizes)
            )
        assert res.output_sizes == self.walked(res.output)

    def test_map_only_output_reaches_the_dfs_sized(self, loaded, dfs):
        res = loaded.run(wordcount_conf(reducer=None, num_reduce_tasks=0))
        assert res.output_sizes == self.walked(res.output)
        for block in dfs.meta("/out").blocks:
            assert block.sizes == self.walked(block.records)
            assert block.size_bytes == sum(block.sizes)

    def test_combined_buckets_carry_the_combiners_sizes(self, loaded):
        conf = wordcount_conf(combiner=wordcount_conf().reducer, num_reduce_tasks=12)
        res = loaded.run(conf, abort_check_reduce=lambda runs, total: True)
        assert res.counters.get("task", "combine_input_records") == 8000
        for run in res.map_runs:
            for bucket, sizes in zip(run.buckets, run.bucket_sizes):
                assert sizes == self.walked(bucket)


class TestValidation:
    def test_missing_input_rejected(self, loaded):
        with pytest.raises(DataFlowError):
            loaded.run(wordcount_conf(input_paths=[]))

    def test_reducer_without_tasks_rejected(self, loaded):
        with pytest.raises(DataFlowError):
            loaded.run(wordcount_conf(num_reduce_tasks=0))

    def test_unknown_input_path(self, loaded):
        with pytest.raises(DataFlowError):
            loaded.run(wordcount_conf(input_paths=["/missing"]))


class TestAbortHooks:
    def test_map_abort_surfaces_remaining(self, loaded):
        res = loaded.run(
            wordcount_conf(), abort_check_map=lambda runs, total: True
        )
        assert res.aborted_phase == "map"
        assert res.remaining_splits

    def test_map_abort_false_runs_to_completion(self, loaded):
        res = loaded.run(
            wordcount_conf(), abort_check_map=lambda runs, total: False
        )
        assert not res.aborted

    def test_reduce_abort_keeps_completed_output(self, loaded):
        calls = []

        def check(runs, total):
            calls.append((len(runs), total))
            return True

        res = loaded.run(
            wordcount_conf(num_reduce_tasks=12), abort_check_reduce=check
        )
        assert res.aborted_phase == "reduce"
        assert res.remaining_partitions
        assert calls and calls[0][1] == 12

    def test_abort_check_sees_first_wave_counts(self, loaded, cluster):
        seen = {}

        def check(runs, total):
            seen["runs"], seen["total"] = len(runs), total
            return False

        loaded.run(wordcount_conf(), abort_check_map=check)
        assert seen["runs"] == min(cluster.total_map_slots, seen["total"])


class TestReduceInputFor:
    """Read from a job stopped after its first reduce wave: the pending
    partitions keep their buckets for the resume (Figure 10(b))."""

    @staticmethod
    def stopped(loaded):
        res = loaded.run(
            wordcount_conf(num_reduce_tasks=12),
            abort_check_reduce=lambda runs, total: True,
        )
        assert res.aborted_phase == "reduce" and res.remaining_partitions
        return res

    def test_mismatched_bucket_count_is_clear_error(self, loaded):
        # Regression: a resumed job mixing map runs from plans with
        # different reduce-task counts used to die with a bare
        # IndexError deep in the shuffle.
        res = self.stopped(loaded)
        with pytest.raises(DataFlowError, match="shuffle buckets"):
            loaded.sized_reduce_input(res.map_runs, 12)

    @pytest.mark.parametrize("partition", [-1, -12])
    def test_negative_partition_is_clear_error(self, loaded, partition):
        # Regression: ``buckets[-1]`` served the last partition's records
        # to whoever asked for partition -1.
        res = self.stopped(loaded)
        with pytest.raises(DataFlowError, match="shuffle buckets"):
            loaded.sized_reduce_input(res.map_runs, partition)

    def test_valid_partition_still_served(self, loaded):
        res = self.stopped(loaded)
        records, sizes = loaded.sized_reduce_input(
            res.map_runs, res.remaining_partitions[-1]
        )
        assert records
        assert all(isinstance(r, tuple) for r in records)
        assert sizes == [sizeof_pair(*r) for r in records]

    def test_a_read_partition_is_gone(self, loaded):
        res = self.stopped(loaded)
        (done, *_) = sorted(run.partition for run in res.reduce_runs)
        assert done not in res.remaining_partitions
        assert loaded.sized_reduce_input(res.map_runs, done) == ([], [])


class TestPerPartitionOutput:
    def test_part_files_written(self, loaded, dfs):
        conf = wordcount_conf(output_per_partition=True)
        res = loaded.run(conf)
        for p in range(3):
            path = JobRunner.partition_path("/out", p)
            assert dfs.exists(path)
        combined = []
        for p in range(3):
            combined.extend(dfs.read(JobRunner.partition_path("/out", p)))
        assert sorted(combined) == sorted(res.output)


class TestSideReduceInputs:
    def test_side_records_join_reduce(self, loaded):
        conf = wordcount_conf(side_reduce_inputs=[("alpha", 1)] * 50)
        res = loaded.run(conf)
        assert dict(res.output)["alpha"] == 2050

    def test_side_sizes_stand_in_for_the_walk(self, loaded):
        side = [("alpha", 1)] * 50
        bare = loaded.run(wordcount_conf(side_reduce_inputs=side))
        sized = loaded.run(
            wordcount_conf(
                side_reduce_inputs=side,
                side_reduce_sizes=[sizeof_pair(*r) for r in side],
            )
        )
        assert sized.output == bare.output and sized.end_time == bare.end_time
        assert sized.counters.get("task", "reduce_input_bytes") == bare.counters.get(
            "task", "reduce_input_bytes"
        )

    def test_side_sizes_must_match_side_records(self, loaded):
        conf = wordcount_conf(
            side_reduce_inputs=[("alpha", 1)] * 50, side_reduce_sizes=[13] * 49
        )
        with pytest.raises(
            DataFlowError, match="side_reduce_inputs: 50 records but 49 sizes"
        ):
            loaded.run(conf)

    def test_side_inputs_require_reducer(self, loaded):
        conf = wordcount_conf(
            reducer=None, num_reduce_tasks=0, side_reduce_inputs=[("a", 1)]
        )
        with pytest.raises(DataFlowError):
            loaded.run(conf)


class TestHostConstraint:
    def test_constraint_pins_map_tasks(self, cluster, dfs):
        dfs.write("/in", [(i, "x" * 50) for i in range(400)])
        conf = JobConf(
            name="pin",
            input_paths=["/in"],
            output_path="/out",
            map_chain=[IdentityMapper()],
            map_host_constraint=lambda idx: ["node00"],
        )
        res = JobRunner(cluster, dfs).run(conf)
        assert {r.node_host for r in res.map_runs} == {"node00"}

    def test_unconstrained_spreads(self, cluster, dfs):
        dfs.write("/in", [(i, "x" * 50) for i in range(2000)])
        conf = JobConf(
            name="spread",
            input_paths=["/in"],
            output_path="/out",
            map_chain=[IdentityMapper()],
        )
        res = JobRunner(cluster, dfs).run(conf)
        assert len({r.node_host for r in res.map_runs}) > 1
