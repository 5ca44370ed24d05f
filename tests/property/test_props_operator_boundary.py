"""Differential suite for the operator boundary's per-record path.

``PreProcessFn`` hands each record a fresh ``IndexInput`` made without
its ``__init__`` and feeds the FM sketches once per stream, from the
carriers it emitted; ``FMSketch.add`` is ``add_all`` over one key; an
index with no fault plan attached serves through ``_lookup`` directly.
The oracles below are what those replaced -- ``PreProcessFn.consume``
and ``FMSketch.add`` as they were, verbatim but for where the sketch
adder comes from and the per-index sample it adds to -- and the retry path under a fault plan that injects
nothing. They live here, not in ``src``.
"""

import functools
import itertools
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DataFlowError
from repro.common.sizing import sizeof, sizeof_pair
from repro.core.accessor import IndexAccessor
from repro.core.operator import IndexInput
from repro.core.statistics import FMSketch, OperatorStatsAccumulator
from repro.core.strategy import _CARRIER_BYTES, _CARRIER_TAG, _HEADER_BYTES, PreProcessFn
from repro.indices.base import MappingIndex
from repro.indices.btree import DistributedBTree
from repro.indices.dynamic import DynamicComputedIndex
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import OutputCollector, TaskContext, stable_hash
from repro.mapreduce.chain import run_chain_collected
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan
from repro.simcluster.timemodel import TimeModel
from test_props_chain_sizes import PRE_MODES, GeneratedOperator, build_operator, values


# ----------------------------------------------------------------------
# The oracles
# ----------------------------------------------------------------------
def oracle_add(sketch, key):
    """``FMSketch.add`` as it was: one key per call, hashed through
    ``stable_hash``."""
    h = stable_hash(key) * 2654435761 & 0xFFFFFFFFFFFF
    bucket = h % sketch.num_buckets
    h //= sketch.num_buckets
    if h == 0:
        position = sketch.bitmap_bits - 1
    else:
        position = (h & -h).bit_length() - 1  # lowest set bit of h
        position = min(position, sketch.bitmap_bits - 1)
    sketch.bitmaps[bucket] |= 1 << position


class OraclePreProcessFn(PreProcessFn):
    """``PreProcessFn.consume`` as it was: an ``IndexInput(m)`` and an
    ``as_tuple()`` per record, every key fed to its sketch as it comes."""

    def consume(self, records, sizes, collector, ctx):
        if not records:
            return  # an empty split binds nothing and opens no sample
        pre_process = self.operator.pre_process
        m = self.operator.num_indices
        no_values = (None,) * m
        # All of a fresh carrier pair but (k1, v1) and the key tuples.
        fixed_bytes = _CARRIER_BYTES + _HEADER_BYTES + sizeof(no_values)
        stats = self.stats
        if stats is not None:
            # Exact integers, summed here and added to the sample once;
            # the sketches are OR-ed into, so they take each key as it comes.
            s1_total = 0
            nik, sik, wide = [0] * m, [0] * m, [0] * m
            add_to_sketch = [functools.partial(oracle_add, stats.fm[j]) for j in range(m)]
        out_records: List[tuple] = []
        out_sizes: List[int] = []
        try:
            for (key, value), s1 in zip(
                records, itertools.repeat(None) if sizes is None else sizes
            ):
                index_input = IndexInput(m)
                returned = pre_process(key, value, index_input)
                if (
                    type(returned) is not tuple
                    and not isinstance(returned, (tuple, list))
                ) or len(returned) != 2:
                    raise DataFlowError(
                        f"pre_process of {self.operator_id} must return the "
                        f"(key, value) pair to carry on; for input key {key!r} "
                        f"it returned {returned!r}"
                    )
                out_key, out_value = returned
                ikl = index_input.as_tuple()

                # The carrier pair is sized from its parts: S1 stands for
                # (k1, v1) when pre_process handed the very objects back,
                # and each index's key tuple is sized once, for the
                # carrier and for Sik alike.
                unchanged = out_key is key and out_value is value
                if s1 is None and (unchanged or stats is not None):
                    s1 = sizeof_pair(key, value)
                nbytes = (
                    s1 if unchanged else sizeof_pair(out_key, out_value)
                ) + fixed_bytes
                for j, keys in enumerate(ikl):
                    if not keys:
                        nbytes += _HEADER_BYTES  # sizeof(())
                        continue
                    key_bytes = sizeof(keys)  # header + Sik_j
                    nbytes += key_bytes
                    if stats is not None:
                        nik[j] += len(keys)
                        wide[j] += len(keys) > 1
                        sik[j] += key_bytes - _HEADER_BYTES
                        for ik in keys:
                            add_to_sketch[j](ik)
                if stats is not None:
                    s1_total += s1
                out_records.append(
                    (out_key, (_CARRIER_TAG, out_value, ikl, no_values))
                )
                out_sizes.append(nbytes)
        finally:
            collector.extend(out_records, out_sizes)
            if stats is not None and out_records:
                sample = stats.sample_for(ctx.task_id)
                sample.n1 += len(out_records)
                sample.s1_bytes += s1_total
                sample.spre_bytes += sum(out_sizes)
                for j in range(m):
                    if nik[j]:
                        sample.index[j].nik += nik[j]
                        sample.index[j].multi_key_records += wide[j]
                        sample.index[j].sik_bytes += sik[j]


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
# Every rung of ``stable_hash`` a lookup key can take: exact ints
# (negative and past 32 bits included), bools, floats, strings, tuples;
# a small pool, so keys repeat within a record and across records.
KEY_POOL = (0, 1, -1, 7, 2**40, -(2**63), True, False, 1.0, -2.5, 0.1, "a", "é", "",
            (1, 2), (1, "a"), (2**40, 1.0, ("x",)))
lookup_keys = st.one_of(
    st.sampled_from(KEY_POOL),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.tuples(st.integers(), st.text(max_size=2)),
)


@st.composite
def streams(draw):
    m = draw(st.integers(1, 3))
    mappings = [{} for _ in range(m)]
    key_lists = st.tuples(
        *[st.lists(lookup_keys, max_size=3).map(tuple) for _ in range(m)]
    )
    records = draw(
        st.lists(
            st.tuples(
                st.one_of(st.text(max_size=4), st.integers(0, 2)),
                st.tuples(values, key_lists),
            ),
            max_size=12,
        )
    )
    return mappings, records


def ctx():
    return TaskContext(Cluster(num_nodes=2).nodes[0], TimeModel(), task_id="t0")


def run_pre(cls, op, records, sizes, with_stats):
    acc = OperatorStatsAccumulator("op0", op.num_indices, 2)
    stage = cls(op, "op0", acc if with_stats else None)
    if sizes is None:  # a bare record list: the chain sizes it on entry
        out = run_chain_collected([stage], records, ctx())
    else:
        out = OutputCollector()
        stage.run(records, sizes, out, ctx())
    return (
        out.records,
        out.sizes,
        out.bytes,
        acc.sample_for("t0"),
        [acc.fm[j].bitmaps for j in range(op.num_indices)],
    )


class TestPreProcessEqualsTheOldLoop:
    @given(streams(), st.sampled_from(PRE_MODES), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_records_sizes_sample_and_sketches(self, stream, mode, sized, with_stats):
        mappings, records = stream
        sizes = [sizeof_pair(k, v) for k, v in records] if sized else None
        old, new = (
            run_pre(cls, build_operator(mappings, mode), records, sizes, with_stats)
            for cls in (OraclePreProcessFn, PreProcessFn)
        )
        # records, sizes, bytes; then N1, S1, Spre, Nik, Sik -- the whole
        # sample -- and every bitmap of every index's sketch.
        assert new == old

    def test_a_kept_index_input_keeps_what_it_saw(self):
        """Still one new ``IndexInput`` per record: a ``pre_process``
        that keeps its view sees its own record's keys, not the next's."""
        kept = []

        class Keeps(GeneratedOperator):
            def pre_process(self, key, value, index_input):
                kept.append(index_input)
                return super().pre_process(key, value, index_input)

        op = Keeps("pass").add_index(IndexAccessor(MappingIndex("m", {})))
        records = [("a", ("p", ((1, 2),))), ("b", ("q", ((3,),)))]
        run_chain_collected([PreProcessFn(op, "op0")], records, ctx())
        assert kept[0] is not kept[1]
        assert [ii.keys(0) for ii in kept] == [[1, 2], [3]]
        assert [ii.as_tuple() for ii in kept] == [((1, 2),), ((3,),)]


class TestAddAllEqualsTheOldAdd:
    @pytest.mark.parametrize("key", [True, False, -1, 2**40, 1.0, 0, None, (1, 2.5)])
    def test_the_rungs_an_inline_int_could_get_wrong(self, key):
        new, old = FMSketch(), FMSketch()
        new.add_all([key])
        oracle_add(old, key)
        assert new.bitmaps == old.bitmaps
        one = FMSketch()
        one.add(key)
        assert one.bitmaps == old.bitmaps

    @given(st.lists(lookup_keys, max_size=40), st.integers(1, 64), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_any_stream_in_any_grouping(self, keys, num_buckets, split):
        old = FMSketch(num_buckets=num_buckets, bitmap_bits=8)
        for key in keys:
            oracle_add(old, key)
        whole = FMSketch(num_buckets=num_buckets, bitmap_bits=8)
        whole.add_all(iter(keys))
        grouped = FMSketch(num_buckets=num_buckets, bitmap_bits=8)
        grouped.add_all(keys[split:])
        for key in reversed(keys[:split]):
            grouped.add(key)
        assert whole.bitmaps == old.bitmaps == grouped.bitmaps


def indices(cluster):
    """One index of each serve shape: a native multiget over a mapping,
    the replicated KV store (the one ``_attempt`` override) and B-tree,
    and the base class's loop of single lookups."""
    items = [(k, f"v{k}") for k in range(40)] + [(k, f"w{k}") for k in range(0, 40, 3)]
    kv = DistributedKVStore("kv", cluster, num_partitions=8)
    kv.load(items)
    mapping = {}
    for k, v in items:
        mapping.setdefault(k, []).append(v)
    return [
        MappingIndex("map", mapping),
        kv,
        DistributedBTree("bt", cluster, items, num_partitions=4),
        DynamicComputedIndex("dyn", lambda k: [k * 2] if k % 5 else []),
    ]


class TestNoPlanServesWhatTheRetryPathServes:
    @given(
        st.lists(st.integers(-3, 45), max_size=8),
        st.lists(st.lists(st.integers(-3, 45), max_size=6), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_values_and_accounting(self, singles, batches):
        cluster = Cluster(num_nodes=4)
        sides = []
        for plan in (None, FaultPlan(seed=5)):
            seen = []
            for index in indices(cluster):
                index.set_fault_plan(plan)
                task = TaskContext(cluster.nodes[0], TimeModel(), task_id="t0")
                got = [index.lookup(k, task) for k in singles]
                got += [index.lookup_batch(keys, task) for keys in batches]
                seen.append(
                    (
                        got,
                        index.lookups_served,
                        task.charged_time,
                        task.counters.to_dict(),
                    )
                )
            sides.append(seen)
        assert sides[0] == sides[1]
