"""Unit tests for the MapReduce user API."""

import pytest

from repro.common.errors import DataFlowError
from repro.mapreduce.api import (
    FnMapper,
    FnPartitioner,
    FnReducer,
    HashPartitioner,
    IdentityMapper,
    IdentityReducer,
    OutputCollector,
    TaskContext,
    stable_hash,
)
from repro.simcluster.cluster import Cluster
from repro.simcluster.timemodel import TimeModel


@pytest.fixture
def ctx():
    cluster = Cluster(num_nodes=2)
    return TaskContext(cluster.nodes[0], TimeModel(), task_id="t0")


class TestOutputCollector:
    def test_collect_appends(self):
        c = OutputCollector()
        c.collect("k", 1)
        c.collect("k2", 2)
        assert c.records == [("k", 1), ("k2", 2)]

    def test_tracks_bytes(self):
        c = OutputCollector()
        c.collect("ab", 1)
        assert c.bytes == 2 + 8

    def test_one_size_per_record(self):
        c = OutputCollector()
        c.collect("ab", 1)
        c.collect("k", (1, "xyz"))
        assert c.sizes == [10, 1 + 4 + 8 + 3]
        assert c.bytes == sum(c.sizes)

    def test_passed_size_is_taken_and_the_pair_not_walked(self):
        class Unsizable:
            def wire_size(self):
                raise AssertionError("walked")

        c = OutputCollector()
        c.collect("k", Unsizable(), 41)
        c.collect("ab", 1)
        assert (c.sizes, c.bytes) == ([41, 10], 51)


class TestCollectorExtend:
    def test_extend_is_collect_with_the_size_for_every_pair(self):
        c = OutputCollector()
        c.collect("ab", 1)
        c.extend([("k", "v"), ("k2", None)], [2, 3])
        c.extend((), ())
        assert c.records == [("ab", 1), ("k", "v"), ("k2", None)]
        assert (c.sizes, c.bytes) == ([10, 2, 3], 15)

    def test_extend_refuses_mismatched_lengths(self):
        c = OutputCollector()
        c.collect("ab", 1)
        with pytest.raises(DataFlowError, match="2 records with 1 sizes"):
            c.extend([("k", "v"), ("k2", None)], [2])
        assert (c.records, c.sizes, c.bytes) == ([("ab", 1)], [10], 10)


class TestTaskContext:
    def test_charge_accumulates(self, ctx):
        ctx.charge(0.5)
        ctx.charge(0.25)
        assert ctx.charged_time == 0.75

    def test_charge_rejects_negative(self, ctx):
        with pytest.raises(ValueError):
            ctx.charge(-1)

    def test_charge_rejects_nan(self, ctx):
        # NaN passes a ``< 0`` test and would turn the task's duration,
        # and through it the job's makespan, into NaN without a word.
        ctx.charge(0.25)
        with pytest.raises(ValueError, match="nan"):
            ctx.charge(float("nan"))
        assert ctx.charged_time == 0.25

    def test_charge_of_zero_passes(self, ctx):
        ctx.charge(0.0)
        ctx.charge(0)
        assert ctx.charged_time == 0.0

    def test_counters_start_empty(self, ctx):
        assert len(ctx.counters) == 0

    def test_input_size_unknown_outside_a_chain(self, ctx):
        assert ctx.input_bytes is None


class TestAdapters:
    def test_identity_mapper(self, ctx):
        c = OutputCollector()
        IdentityMapper().process("k", "v", c, ctx)
        assert c.records == [("k", "v")]

    def test_identity_reducer(self, ctx):
        c = OutputCollector()
        IdentityReducer().reduce("k", [1, 2], c, ctx)
        assert c.records == [("k", 1), ("k", 2)]

    def test_fn_mapper(self, ctx):
        m = FnMapper(lambda k, v: [(v, k)])
        c = OutputCollector()
        m.process(1, "a", c, ctx)
        assert c.records == [("a", 1)]

    def test_fn_reducer(self, ctx):
        r = FnReducer(lambda k, vs: [(k, sum(vs))])
        c = OutputCollector()
        r.reduce("k", [1, 2, 3], c, ctx)
        assert c.records == [("k", 6)]

    def test_fn_partitioner(self):
        p = FnPartitioner(lambda k, n: k % n)
        assert p.partition(7, 4) == 3


class TestStableHash:
    def test_deterministic_strings(self):
        assert stable_hash("abc") == stable_hash("abc")

    def test_nonnegative(self):
        for v in ("x", -5, 3.14, ("a", 1), None, [1, 2]):
            assert stable_hash(v) >= 0

    def test_distinguishes_values(self):
        assert stable_hash("a") != stable_hash("b")
        assert stable_hash(("a", 1)) != stable_hash(("a", 2))

    def test_int_identity_like(self):
        assert stable_hash(42) == 42

    def test_bool(self):
        assert stable_hash(True) == 1


class TestHashPartitioner:
    def test_in_range(self):
        p = HashPartitioner()
        for key in range(200):
            assert 0 <= p.partition(key, 7) < 7

    def test_deterministic(self):
        p = HashPartitioner()
        assert p.partition("key", 5) == p.partition("key", 5)

    def test_spreads_keys(self):
        p = HashPartitioner()
        buckets = {p.partition(f"key{i}", 8) for i in range(100)}
        assert len(buckets) == 8
