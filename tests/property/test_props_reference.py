"""Generated EFind jobs, held to the engine-independent reference.

One hypothesis generator draws whole :class:`IndexJobConf` s: operators
at the head, body and tail, chains of them at each place, 1-3 indices
per operator, and 0-3 lookup keys per record and index -- keyless
records, in-record duplicates, and int / float / str / tuple keys, with
``2`` and ``2.0`` both in the pool. Every job's output must equal
:func:`repro.reference.evaluate` as a multiset under the four forced
strategies, Optimized and Dynamic. A forced shuffle strategy that the
data cannot run (a record with more than one key for a shuffled index)
must raise :class:`PlanningError`: never a wrong answer, never a bare
builtin exception.
"""

from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import PlanningError
from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer
from repro.reference import evaluate
from repro.simcluster.cluster import Cluster

KEY_POOL = (0, 1, 2, 2.0, 3, 2.5, -1.25, "a", "b", "", (1, "x"), (2.5,), ())
PLACES = ("head", "body", "tail")
FORCED = (Strategy.BASELINE, Strategy.CACHE, Strategy.REPART, Strategy.IDXLOC)


class GenOperator(IndexOperator):
    """Looks up the keys its table lists for a record's key, and emits
    the record with every index's results, ``copies`` times (none when
    ``drop_empty`` and nothing was found)."""

    def __init__(self, name, keys_of, copies, drop_empty):
        super().__init__(name)
        self.keys_of = keys_of  # record key -> one key tuple per index
        self.copies = copies
        self.drop_empty = drop_empty
        self.widest = 0  # most keys one record listed for one index

    def pre_process(self, key, value, index_input):
        for j, keys in enumerate(self.keys_of[key]):
            self.widest = max(self.widest, len(keys))
            for ik in keys:
                index_input.put(j, ik)
        return key, value

    def post_process(self, key, value, index_output, collector):
        found = tuple(
            tuple(index_output.get(j).get_all())
            for j in range(index_output.num_indices)
        )
        if self.drop_empty and not any(found):
            return
        for n in range(self.copies):
            collector.collect(key, (value, found, n))


@dataclass
class GenJob:
    records: List[Tuple[int, str]]
    ops: List[Tuple[str, GenOperator]]
    groups: int
    entries: List[List[Tuple[object, str]]]  # per index: its (key, value)s


a_key = st.sampled_from(KEY_POOL)


@st.composite
def gen_jobs(draw):
    n = draw(st.integers(4, 40))
    num_ops = draw(st.integers(1, 3))
    places = sorted(
        (draw(st.sampled_from(PLACES)) for _ in range(num_ops)), key=PLACES.index
    )
    ops, entries = [], []
    for o, place in enumerate(places):
        m = draw(st.integers(1, 3))
        widths = st.integers(0, 3) if draw(st.booleans()) else st.integers(0, 1)
        keys_of = {
            k: tuple(
                tuple(draw(st.lists(a_key, max_size=draw(widths))))
                for _ in range(m)
            )
            for k in range(n)
        }
        op = GenOperator(
            f"gen{o}", keys_of, draw(st.integers(1, 2)), draw(st.booleans())
        )
        for _ in range(m):
            entries.append(
                [
                    (ik, f"v{len(entries)}.{i}")
                    for ik in draw(st.lists(a_key, max_size=8, unique=True))
                    for i in range(draw(st.integers(1, 2)))
                ]
            )
        ops.append((place, op))
    groups = draw(st.sampled_from([n, 3]))
    return GenJob([(i, f"p{i}") for i in range(n)], ops, groups, entries)


def build(job: GenJob):
    """A fresh cluster, DFS and indices for ``job``, and a function that
    makes its IndexJobConf under a name."""
    cluster = Cluster(num_nodes=4, map_slots_per_node=1, reduce_slots_per_node=1)
    dfs = DistributedFileSystem(cluster, block_size=96)
    dfs.write("/in", job.records)
    stores = []
    for s, entries in enumerate(job.entries):
        store = DistributedKVStore(
            f"idx{s}", cluster, num_partitions=8, replication=2, service_time=1e-3
        )
        for ik, value in entries:
            store.put(ik, value)
        stores.append(store)
    accessors = iter([IndexAccessor(store) for store in stores])
    for _place, op in job.ops:
        op.accessors = []
        for _ in op.keys_of[0]:
            op.add_index(next(accessors))
    groups = job.groups

    def make(name: str) -> IndexJobConf:
        conf = IndexJobConf(name)
        conf.set_input_paths("/in").set_output_path(f"/out/{name}")
        for place, op in job.ops:
            getattr(conf, f"add_{place}_index_operator")(op)
        conf.set_mapper(FnMapper(lambda k, v: [(k % groups, v)], "regroup"))
        if any(place != "head" for place, _ in job.ops) or groups < len(job.records):
            conf.set_reducer(
                FnReducer(lambda k, vs: [(k, tuple(sorted(vs, key=repr)))], "gather"),
                num_reduce_tasks=3,
            )
        return conf

    return cluster, dfs, make


def reference_of(job: GenJob, make) -> Tuple[Counter, int]:
    """The reference output as a multiset, and the most keys any record
    reaching an operator listed for one of its indices."""
    for _place, op in job.ops:
        op.widest = 0
    expected = Counter(evaluate(make("reference"), job.records))
    return expected, max(op.widest for _place, op in job.ops)


@given(job=gen_jobs())
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_every_strategy_matches_the_reference(job):
    cluster, dfs, make = build(job)
    expected, widest = reference_of(job, make)

    def runner():
        return EFindRunner(cluster, dfs, cache_capacity=4)

    for strategy in FORCED:
        conf = make(f"forced-{strategy.value}")
        if widest > 1 and strategy in (Strategy.REPART, Strategy.IDXLOC):
            with pytest.raises(PlanningError):
                runner().run(conf, mode="forced", forced_strategy=strategy)
            continue
        result = runner().run(conf, mode="forced", forced_strategy=strategy)
        assert Counter(result.output) == expected, strategy

    profiler = runner()
    profiler.run(make("profile"), mode="forced", forced_strategy=Strategy.BASELINE)
    optimized = EFindRunner(cluster, dfs, catalog=profiler.catalog, cache_capacity=4)
    assert Counter(optimized.run(make("optimized"), mode="static").output) == expected

    dynamic = runner().run(make("dynamic"), mode="dynamic")
    assert Counter(dynamic.output) == expected


def test_reference_by_hand():
    """A head operator over one index, then a counting reduce."""
    cluster = Cluster(num_nodes=2)
    store = DistributedKVStore("colors", cluster, num_partitions=2)
    store.load([(1, "red"), (2, "blue"), (2, "navy")])
    op = GenOperator("hand", {0: ((1,),), 1: ((2, 2),), 2: ((),)}, 1, False)
    op.add_index(IndexAccessor(store))
    conf = IndexJobConf("hand").set_input_paths("/in").set_output_path("/out")
    conf.add_head_index_operator(op)
    conf.set_reducer(FnReducer(lambda k, vs: [(k, len(vs))]), num_reduce_tasks=1)
    records = [(0, "a"), (1, "b"), (2, "c"), (1, "d")]
    assert sorted(evaluate(conf, records)) == [(0, 1), (1, 2), (2, 1)]
    op.post_process = lambda k, v, out, col: col.collect(v, out.get(0).get_all())
    assert sorted(evaluate(conf, records)) == [
        ("a", 1), ("b", 1), ("c", 1), ("d", 1)
    ]
    conf.reducer = None
    assert sorted(evaluate(conf, records)) == [
        ("a", ["red"]), ("b", ["blue", "navy", "blue", "navy"]), ("c", []),
        ("d", ["blue", "navy", "blue", "navy"]),
    ]
