"""``LookupSettings`` refuses a cache capacity or batch size that is not
an int >= 1 where it is built, so ``EFindRunner(...)`` fails before any
job runs instead of mid-job (or rounding the value silently)."""

import random
from collections import Counter

import pytest

from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.runner import EFindRunner
from repro.core.strategy import LookupSettings
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.kvstore import DistributedKVStore
from repro.reference import evaluate
from repro.simcluster.cluster import Cluster

BAD = [0, -3, None, 1.5, 2.5, 4.0, "4", float("nan"), True, False]


@pytest.mark.parametrize("field", ["cache_capacity", "batch_size"])
@pytest.mark.parametrize("value", BAD, ids=repr)
def test_bad_value_raises_at_construction(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be an int >= 1, got "):
        LookupSettings(**{field: value})


@pytest.mark.parametrize("field", ["cache_capacity", "batch_size"])
@pytest.mark.parametrize("value", BAD, ids=repr)
def test_runner_refuses_before_any_job(field, value):
    cluster = Cluster(num_nodes=2)
    dfs = DistributedFileSystem(cluster)
    with pytest.raises(ValueError, match=field):
        EFindRunner(cluster, dfs, **{field: value})
    assert dfs.listdir() == []


class OneKey(IndexOperator):
    def pre_process(self, key, value, index_input):
        index_input.put(0, value)
        return key, value

    def post_process(self, key, value, index_output, collector):
        collector.collect(key, tuple(index_output.get(0).get_all()))


@pytest.mark.parametrize("batch_size", [1, 7, 64])
@pytest.mark.parametrize("strategy", [Strategy.CACHE, Strategy.REPART])
def test_batch_sizes_still_run(batch_size, strategy):
    rng = random.Random(3)
    records = [(i, rng.randrange(200)) for i in range(2_000)]
    cluster = Cluster(num_nodes=4)
    dfs = DistributedFileSystem(cluster, block_size=4 * 1024)
    dfs.write("/in/keys", records)
    store = DistributedKVStore("kv", cluster, service_time=1e-3)
    store.load((k, f"v{k}") for k in range(200))

    def make(name):
        op = OneKey("one").add_index(IndexAccessor(store))
        job = IndexJobConf(name).set_input_paths("/in/keys")
        return job.set_output_path(f"/out/{name}").add_head_index_operator(op)

    runner = EFindRunner(cluster, dfs, cache_capacity=16, batch_size=batch_size)
    assert runner.settings.batch_size == batch_size
    result = runner.run(make("run"), mode="forced", forced_strategy=strategy)
    assert Counter(result.output) == Counter(evaluate(make("ref"), records))
