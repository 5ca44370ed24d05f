"""A shuffle strategy keys each record by its one lookup key, so the
optimizer may pick it only when no sampled record listed more than one.

Half of these records carry no key and half carry two: the average Nik
is 1, which the old eligibility rule (``Nik <= 1.05``) accepted, so a
profiled static run picked Repart and died in the shuffle with a bare
``ValueError``. The exact tally of multi-key records keeps the planner
off the shuffle strategies, and a forced one fails with a
``PlanningError`` that names what was run. Dynamic only tallies what
its first wave saw, so two-key records that come later still reach a
shuffle plan: pinned below as a strict xfail.
"""

import random
from collections import Counter

import pytest

from repro.common.errors import PlanningError
from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnReducer
from repro.reference import evaluate
from repro.simcluster.cluster import Cluster


class PairLookup(IndexOperator):
    """Looks up every key a record carries; emits the values found."""

    def pre_process(self, key, value, index_input):
        for ik in value:
            index_input.put(0, ik)
        return key, value

    def post_process(self, key, value, index_output, collector):
        collector.collect(key % 50, tuple(index_output.get(0).get_all()))


@pytest.fixture(scope="module")
def env():
    rng = random.Random(11)
    records = [
        (i, () if i % 2 else (rng.randrange(3000), rng.randrange(3000)))
        for i in range(12_000)
    ]
    cluster = Cluster(num_nodes=12, map_slots_per_node=2, reduce_slots_per_node=2)
    dfs = DistributedFileSystem(cluster, block_size=32 * 1024)
    dfs.write("/in/pairs", records)
    store = DistributedKVStore("kv", cluster, service_time=20e-3)
    store.load((k, f"v{k}") for k in range(3000))

    def make(name):
        op = PairLookup("pairs").add_index(IndexAccessor(store))
        job = IndexJobConf(name).set_input_paths("/in/pairs")
        job.set_output_path(f"/out/{name}").add_head_index_operator(op)
        job.set_reducer(
            FnReducer(lambda k, vs: [(k, (len(vs), sum(map(len, vs))))], "count"),
            num_reduce_tasks=4,
        )
        return job

    return cluster, dfs, make, records


def test_profiled_static_plan_returns_the_reference(env):
    cluster, dfs, make, records = env
    runner = EFindRunner(cluster, dfs, cache_capacity=16)
    runner.run(make("profile"), mode="forced", forced_strategy=Strategy.BASELINE)
    ((signature, stats),) = runner.catalog._stats.items()
    assert stats.index(0).nik == 1.0
    assert stats.index(0).multi_key_records == 6000
    result = runner.run(make("static"), mode="static")
    strategies = set(result.plan.operators["head0"].strategies.values())
    assert strategies <= {Strategy.BASELINE, Strategy.CACHE}
    assert Counter(result.output) == Counter(evaluate(make("ref"), records))


@pytest.mark.parametrize("strategy", [Strategy.REPART, Strategy.IDXLOC])
def test_forced_shuffle_raises_planning_error(env, strategy):
    cluster, dfs, make, _ = env
    runner = EFindRunner(cluster, dfs, cache_capacity=16)
    with pytest.raises(PlanningError, match=rf"^{strategy.value} .* keys for index 0 of head0"):
        runner.run(make(f"forced-{strategy.value}"), mode="forced", forced_strategy=strategy)


@pytest.mark.xfail(
    strict=True,
    raises=PlanningError,
    reason="Dynamic re-plans on its first wave, which holds no record with "
    "two keys, so it picks Repart; the first two-key record after the re-plan "
    "fails the job. A shuffle leg for records with several keys is ROADMAP item 9.",
)
def test_dynamic_replans_onto_a_shuffle_a_later_record_cannot_run():
    # One key per record until the last tenth, then two.
    rng = random.Random(5)
    records = [
        (i, tuple(rng.randrange(3000) for _ in range(1 if i < 27_000 else 2)))
        for i in range(30_000)
    ]
    cluster = Cluster(num_nodes=12, map_slots_per_node=2, reduce_slots_per_node=2)
    dfs = DistributedFileSystem(cluster, block_size=16 * 1024)
    dfs.write("/in/late-pairs", records)
    store = DistributedKVStore("kv", cluster, service_time=20e-3)
    store.load((k, f"v{k}") for k in range(3000))

    def make(name):
        op = PairLookup("pairs").add_index(IndexAccessor(store))
        job = IndexJobConf(name).set_input_paths("/in/late-pairs")
        job.set_output_path(f"/out/{name}").add_head_index_operator(op)
        job.set_reducer(
            FnReducer(lambda k, vs: [(k, (len(vs), sum(map(len, vs))))], "count"),
            num_reduce_tasks=4,
        )
        return job

    runner = EFindRunner(cluster, dfs, cache_capacity=16)
    result = runner.run(make("dyn"), mode="dynamic")
    assert Counter(result.output) == Counter(evaluate(make("ref"), records))
