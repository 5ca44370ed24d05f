"""Regression tests: per-task state in ``LookupFn`` must reset when a
task (re)starts.

The adjacent-duplicate memo and the batching buffers live on the
chained-function instance, which the simulated runtime shares across
task attempts. ``start()`` therefore has to drop them; if it ever stops
doing so, a retried task would begin life with the crashed attempt's
memo (eliding fetches it never performed on this attempt) or replay its
un-flushed pending records into the output.
"""

import random

import pytest

from repro.core.accessor import IndexAccessor
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.runner import EFindRunner
from repro.core.strategy import LookupFn, LookupSettings, make_carrier
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.base import MappingIndex
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer, OutputCollector, TaskContext
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan, TaskCrash
from repro.simcluster.timemodel import TimeModel


@pytest.fixture
def ctx():
    cluster = Cluster(num_nodes=2)
    return TaskContext(cluster.nodes[0], TimeModel(), task_id="t0")


@pytest.fixture
def index():
    return MappingIndex("m", {f"k{i}": [i] for i in range(100)}, service_time=1e-3)


@pytest.fixture
def op(index):
    return IndexOperator("unit-op").add_index(IndexAccessor(index))


def carrier_for(key):
    return key, make_carrier("v", ((key,),), (None,))


class TestStartResetsPerTaskState:
    """Every check goes through what a task can observe -- fetches the
    index served and records emitted -- so the private layout of the
    per-task state is free to change."""

    def test_memo_dropped_between_attempts(self, op, index, ctx):
        fn = LookupFn(op, "op0", 0, dedup_adjacent=True)
        fn.start(ctx)
        col = OutputCollector()
        fn.process(*carrier_for("k3"), col, ctx)
        fn.process(*carrier_for("k3"), col, ctx)
        assert index.lookups_served == 1  # second record memo-hit

        # The runtime retries the task: same instance, fresh start().
        fn.start(ctx)
        fn.process(*carrier_for("k3"), col, ctx)
        # The retry must refetch: its memo cannot carry over from the
        # crashed attempt.
        assert index.lookups_served == 2
        assert [c[3] for _, c in col.records] == [(((3,),),)] * 3

    def test_memo_key_reset_to_sentinel(self, ctx):
        # The empty memo must not compare equal to any real ik -- in
        # particular not to None, which is a legal lookup key. Were it
        # to, the first None-keyed record of an attempt would be served
        # the empty memo's () without ever reaching the index.
        index = MappingIndex("m", {None: ["n"], "k3": [3]}, service_time=1e-3)
        op = IndexOperator("unit-op").add_index(IndexAccessor(index))
        fn = LookupFn(op, "op0", 0, dedup_adjacent=True)
        for attempt in (1, 2):
            fn.start(ctx)
            col = OutputCollector()
            fn.process(*carrier_for(None), col, ctx)
            assert index.lookups_served == 2 * attempt - 1
            assert col.records[0][1][3] == ((("n",),),)
            fn.process(*carrier_for("k3"), col, ctx)  # leave a real memo

    def test_pending_batch_dropped_between_attempts(self, op, index, ctx):
        fn = LookupFn(op, "op0", 0, settings=LookupSettings(batch_size=4))
        fn.start(ctx)
        col = OutputCollector()
        fn.process(*carrier_for("k1"), col, ctx)
        fn.process(*carrier_for("k2"), col, ctx)
        assert col.records == []  # buffered, not yet flushed
        assert index.lookups_served == 0

        fn.start(ctx)  # retry: the crashed attempt's buffer must vanish
        fn.process(*carrier_for("k3"), col, ctx)
        fn.process(*carrier_for("k4"), col, ctx)
        fn.finish(col, ctx)
        # Exactly the retry's two records and the retry's two keys --
        # nothing replayed (or fetched) from the first attempt's buffer.
        assert sorted(k for k, _ in col.records) == ["k3", "k4"]
        assert index.lookups_served == 2
        assert ctx.counters.get("batch", "batches_issued") == 1
        assert ctx.counters.get("batch", "keys_batched") == 2


class FirstCityOperator(IndexOperator):
    """(user, payload) record -> (city, payload)."""

    def pre_process(self, key, value, index_input):
        user, payload = value
        index_input.put(0, user)
        return key, payload

    def post_process(self, key, value, index_output, collector):
        cities = index_output.get(0).get_all()
        collector.collect(cities[0] if cities else "missing", value)


class TestRetriedTaskRuntime:
    """End-to-end: crash the map task that runs the dedup LookupFn
    (forced REPART, ``boundary_override='pre'``) mid-stream and check
    the retried job is indistinguishable from a clean one."""

    def env(self):
        rng = random.Random(99)
        cluster = Cluster(num_nodes=6, map_slots_per_node=2, reduce_slots_per_node=2)
        dfs = DistributedFileSystem(cluster, block_size=8 * 1024)
        records = [
            (i, (f"user{rng.randrange(60):03d}", "x" * 40)) for i in range(1200)
        ]
        dfs.write("/in/memo", records)
        kv = DistributedKVStore("memo-users", cluster, service_time=4e-3)
        for u in range(60):
            kv.put_unique(f"user{u:03d}", f"city{u % 9:02d}")
        return cluster, dfs, kv

    def make_job(self, name, kv):
        job = IndexJobConf(name)
        job.set_input_paths("/in/memo").set_output_path(f"/out/{name}")
        job.add_head_index_operator(
            FirstCityOperator("city-op").add_index(IndexAccessor(kv))
        )
        job.set_mapper(FnMapper(lambda k, v: [(k, v)], "ident"))
        job.set_reducer(
            FnReducer(lambda k, vs: [(k, len(vs))], "count"), num_reduce_tasks=4
        )
        return job

    def run(self, name, fault_plan=None, batch_size=1):
        cluster, dfs, kv = self.env()
        runner = EFindRunner(
            cluster, dfs, fault_plan=fault_plan, batch_size=batch_size
        )
        # boundary 'pre' puts LookupFn(dedup_adjacent=True) into the map
        # phase of the '<name>/main' stage, fed by the sorted shuffle
        # output (adjacent duplicates => the memo actually fires).
        return runner.run(
            self.make_job(name, kv),
            mode="forced",
            forced_strategy="repart",
            extra_job_targets=["head0"],
            boundary_override="pre",
        )

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_retried_lookup_task_output_identical(self, batch_size):
        clean = self.run(f"memo-clean-b{batch_size}", batch_size=batch_size)
        # Crash the dedup-lookup map task mid-stream, inside its record
        # loop, so the dead attempt leaves a populated memo (and, for
        # batch_size > 1, a part-filled pending buffer) behind.
        plan = FaultPlan(
            task_crashes=[
                TaskCrash(f"memo-crash-b{batch_size}/main-m0000", 25)
            ]
        )
        crashed = self.run(
            f"memo-crash-b{batch_size}", fault_plan=plan, batch_size=batch_size
        )
        assert crashed.counters.get("fault", "tasks_retried") == 1
        assert sorted(crashed.output) == sorted(clean.output)
        # The retry re-paid for its work: never faster than the clean run.
        assert crashed.sim_time >= clean.sim_time
