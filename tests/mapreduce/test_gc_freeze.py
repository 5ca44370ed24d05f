"""The collector's scope (DESIGN.md 5.18): while a job runs, each task
attempt starts with everything older frozen, and the run hands the
collector back exactly as it found it -- on a return and on a raise.

A caller who froze objects, or disabled the collector, owns it: the
engine then freezes nothing, and its answers are the same either way.
"""

import gc
import weakref

import pytest

from repro.common.errors import DataFlowError
from repro.core.accessor import IndexAccessor
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer, Mapper
from repro.mapreduce.jobconf import JobConf
from repro.mapreduce.runtime import JobRunner
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan, TaskCrash


def collector_state():
    return gc.get_freeze_count(), gc.isenabled()


@pytest.fixture(autouse=True)
def restore_collector():
    """Whatever a test does to the collector, the next test starts with
    it enabled and nothing frozen."""
    gc.unfreeze()
    gc.enable()
    yield
    gc.unfreeze()
    gc.enable()


@pytest.fixture
def loaded(dfs):
    dfs.write("/in", [(i, f"w{i % 37} w{i % 11}") for i in range(600)])
    return dfs


def conf(mapper=None, **overrides):
    def tokenize(k, v):
        for w in v.split():
            yield (w, 1)

    fields = dict(
        name="wc",
        input_paths=["/in"],
        output_path="/out",
        map_chain=[mapper or FnMapper(tokenize)],
        reducer=FnReducer(lambda k, vs: [(k, sum(vs))]),
        num_reduce_tasks=3,
    )
    fields.update(overrides)
    return JobConf(**fields)


class OneKey(IndexOperator):
    def pre_process(self, key, value, index_input):
        index_input.put(0, key % 50)
        return key, value

    def post_process(self, key, value, index_output, collector):
        collector.collect(key, tuple(index_output.get(0).get_all()))


def efind_job(cluster, name):
    store = DistributedKVStore("kv", cluster, service_time=1e-3)
    store.load((k, f"v{k}") for k in range(50))
    op = OneKey("one").add_index(IndexAccessor(store))
    job = IndexJobConf(name).set_input_paths("/in")
    return job.set_output_path(f"/out/{name}").add_head_index_operator(op)


class FreezeSpy(Mapper):
    """Pass records through; note the freeze count as each task attempt
    starts. One read per attempt: the count walks the whole permanent
    generation, so a read per record would dominate the test."""

    def __init__(self, seen):
        self.seen = seen

    def start(self, ctx):
        self.seen.append(gc.get_freeze_count())

    def map(self, key, value, collector, ctx):
        collector.collect(key, value)


def frozen_during_attempts(cluster, dfs):
    """Run one job; return the freeze counts its map attempts saw."""
    seen = []
    map_only = conf(FreezeSpy(seen), reducer=None, num_reduce_tasks=0)
    JobRunner(cluster, dfs).run(map_only)
    return seen


class TestOwnership:
    def test_attempts_run_frozen_when_the_engine_owns(self, cluster, loaded):
        assert collector_state() == (0, True)
        seen = frozen_during_attempts(cluster, loaded)
        assert seen and min(seen) > 0
        assert collector_state() == (0, True)

    def test_job_runner_returns_the_collector_as_found(self, cluster, loaded):
        JobRunner(cluster, loaded).run(conf())
        assert collector_state() == (0, True)

    def test_efind_runner_returns_the_collector_as_found(self, cluster, loaded):
        EFindRunner(cluster, loaded).run(efind_job(cluster, "q"))
        assert collector_state() == (0, True)

    def test_a_raise_from_user_code_unfreezes(self, cluster, loaded):
        def boom(k, v):
            raise DataFlowError("user code refused a record")

        with pytest.raises(DataFlowError, match="refused"):
            JobRunner(cluster, loaded).run(conf(FnMapper(boom)))
        assert collector_state() == (0, True)

    def test_a_task_out_of_attempts_unfreezes(self, cluster, loaded):
        plan = FaultPlan(task_crashes=[TaskCrash("wc-m0000", 1, attempts=4)])
        runner = JobRunner(cluster, loaded, fault_plan=plan)
        with pytest.raises(DataFlowError, match="failed 4 attempts"):
            runner.run(conf())
        assert collector_state() == (0, True)

    def test_an_efind_run_that_raises_unfreezes(self, cluster, loaded):
        job = efind_job(cluster, "boom")

        def boom(k, v):
            raise DataFlowError("user code refused a record")

        job.set_mapper(FnMapper(boom))
        with pytest.raises(DataFlowError, match="refused"):
            EFindRunner(cluster, loaded).run(job)
        assert collector_state() == (0, True)


class TestCallerOwned:
    def test_a_caller_freeze_is_kept_and_changes_nothing(self):
        def run():
            # A fresh cluster each time, so no object the caller froze
            # dies during the run (a freed object leaves the count).
            cluster = Cluster(num_nodes=4)
            dfs = DistributedFileSystem(cluster, block_size=8 * 1024)
            dfs.write("/in", [(i, f"w{i % 37} w{i % 11}") for i in range(600)])
            result = EFindRunner(cluster, dfs).run(efind_job(cluster, "q"))
            return sorted(result.output), result.sim_time, result.counters.to_dict()

        engine_owned = run()
        gc.freeze()
        count = gc.get_freeze_count()
        assert count > 0
        caller_owned = run()
        assert gc.get_freeze_count() == count
        assert caller_owned == engine_owned

    def test_a_caller_freeze_is_not_extended(self, cluster, loaded):
        gc.freeze()
        count = gc.get_freeze_count()
        assert set(frozen_during_attempts(cluster, loaded)) == {count}
        assert collector_state() == (count, True)

    def test_a_disabled_collector_stays_disabled(self, cluster, loaded):
        gc.disable()
        assert set(frozen_during_attempts(cluster, loaded)) == {0}
        JobRunner(cluster, loaded).run(conf())
        assert collector_state() == (0, False)


class Node:
    pass


def test_cycles_made_in_tasks_are_freed_after_the_run(cluster, loaded):
    alive = []

    def cyclic(k, v):
        node = Node()
        node.self = node
        alive.append(weakref.ref(node))
        yield (k, v)

    map_only = conf(FnMapper(cyclic), reducer=None, num_reduce_tasks=0)
    JobRunner(cluster, loaded).run(map_only)
    assert len(alive) == 600
    gc.collect()
    assert not [ref for ref in alive if ref() is not None]
