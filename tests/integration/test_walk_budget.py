"""Walk budget of whole jobs: a record list keeps the sizes its
collector (or the DFS) recorded, so a record crossing N engine
boundaries is walked once -- where it is made (DESIGN.md 5.12).

As in ``tests/core/test_strategy_units.py::TestWalkBudget``, the budget
is pinned with a value that counts its own ``wire_size()`` calls.
"""

import pytest

from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.build import BuildSession
from repro.indices.kvstore import DistributedKVStore
from repro.simcluster.cluster import Cluster

NUM_RECORDS = 120


class CountedValue:
    """A 100-byte value that counts how often it is sized."""

    walks = 0

    def wire_size(self):
        CountedValue.walks += 1
        return 100


class PassThroughOperator(IndexOperator):
    """Hands ``pre_process`` its very input back, so the carrier holds
    the counted value from preProcess to postProcess; emits a pair that
    does not contain it, so no *new* pair brings a walk of its own."""

    def pre_process(self, key, value, index_input):
        index_input.put(0, value[0])
        return key, value

    def post_process(self, key, value, index_output, collector):
        collector.collect(key, len(index_output.get(0).get_all()))


@pytest.fixture
def env():
    cluster = Cluster(num_nodes=4, map_slots_per_node=2, reduce_slots_per_node=2)
    dfs = DistributedFileSystem(cluster, block_size=2048)
    kv = DistributedKVStore("users", cluster, num_partitions=4, service_time=1e-3)
    for u in range(10):
        kv.put(f"user{u}", u)
    CountedValue.walks = 0
    dfs.write(
        "/in", [(i, (f"user{i % 13}", CountedValue())) for i in range(NUM_RECORDS)]
    )
    assert CountedValue.walks == NUM_RECORDS  # the one walk: on the way in
    assert len(dfs.meta("/in").blocks) > 4

    def make_job(name):
        job = IndexJobConf(name)
        job.set_input_paths("/in").set_output_path(f"/out/{name}")
        job.add_head_index_operator(
            PassThroughOperator("pass").add_index(IndexAccessor(kv))
        )
        return job

    return EFindRunner(cluster, dfs), make_job


class TestWalkBudget:
    def test_input_written_once_and_read_by_k_jobs_is_walked_once(self, env):
        """S1 of every job comes from the sizes the blocks kept. (Each
        job used to walk its split records again: 1 + k walks.)"""
        runner, make_job = env
        s1 = sum(8 + 4 + len(f"user{i % 13}") + 100 for i in range(NUM_RECORDS))
        for k, strategy in enumerate(
            [Strategy.BASELINE, Strategy.CACHE, Strategy.CACHE]
        ):
            result = runner.run(
                make_job(f"job{k}"), mode="forced", forced_strategy=strategy
            )
            assert len(result.output) == NUM_RECORDS
            assert result.stats["head0"].s1 == pytest.approx(s1 / NUM_RECORDS)
        assert CountedValue.walks == NUM_RECORDS

    def test_a_build_session_does_not_bring_a_walk_per_record(self, env):
        """The ``IndexBuilderFn`` a build session prepends to the map
        chain is a pass-through: it hands the split's sizes on. (It used
        to collect without them, so the first stage walked every input
        record again and S1 had nothing to read: 120 walks per job.)"""
        runner, make_job = env
        kv = make_job("probe").head_operators[0].accessors[0].index
        built = EFindRunner(
            runner.cluster, runner.dfs, build=BuildSession({kv.name: kv})
        )
        for k in range(2):  # building, then built further
            result = built.run(
                make_job(f"build{k}"), mode="forced", forced_strategy=Strategy.CACHE
            )
            assert len(result.output) == NUM_RECORDS
            assert result.counters.get("build", "records_indexed") > 0
        assert CountedValue.walks == NUM_RECORDS  # still the write's alone

    @pytest.mark.parametrize(
        "strategy, boundary, stages",
        [
            (Strategy.IDXLOC, None, 2),  # materialize -> DFS -> second-job lookup
            (Strategy.REPART, "pre", 2),  # the same, hash-partitioned
            (Strategy.REPART, "idx", 2),  # lookup in the shuffle job's reduce
            (Strategy.REPART, "post", 1),
        ],
    )
    def test_carrier_is_not_walked_after_preprocess_made_it(
        self, env, strategy, boundary, stages
    ):
        """map (pre, keyby) -> shuffle -> reduce -> DFS -> next job's
        lookup -> post: every hand-off passes the carrier's size on.
        (Index locality used to walk it four times on the way -- the
        reduce task's input, the materialising collector, the DFS write,
        the second job's lookup stage -- and S1 once before.)"""
        runner, make_job = env
        CountedValue.walks = 0
        result = runner.run(
            make_job("shuffled"),
            mode="forced",
            forced_strategy=strategy,
            boundary_override=boundary,
        )
        assert result.num_stages == stages
        assert len(result.output) == NUM_RECORDS
        assert sum(hits for _, hits in result.output) == sum(
            1 for i in range(NUM_RECORDS) if i % 13 < 10
        )
        assert CountedValue.walks == 0
