"""Unit tests for the individual strategy chained-functions."""

import collections
import dataclasses
import gc
import weakref

import pytest

from repro.common.errors import DataFlowError, PlanningError
from repro.common.sizing import sizeof_pair
from repro.core.accessor import IndexAccessor
from repro.core.operator import IndexOperator
from repro.core.statistics import OperatorStatsAccumulator
from repro.core.strategy import (
    CarrierMaterializeReducer,
    GroupLookupReducer,
    KeyByIkFn,
    LookupFn,
    LookupPipeline,
    LookupSettings,
    PostProcessFn,
    PreProcessFn,
    RecordMeter,
    SchemePartitioner,
    make_carrier,
    open_carrier,
)
from repro.indices.base import MappingIndex
from repro.indices.partitioning import HashPartitionScheme, round_robin_placements
from repro.mapreduce.api import OutputCollector, TaskContext
from repro.mapreduce.chain import run_chain, run_chain_collected
from repro.simcluster.cluster import Cluster
from repro.simcluster.timemodel import TimeModel


@pytest.fixture
def ctx():
    cluster = Cluster(num_nodes=2)
    return TaskContext(cluster.nodes[0], TimeModel(), task_id="t0")


@pytest.fixture
def op():
    index = MappingIndex("m", {f"k{i}": [i] for i in range(100)}, service_time=1e-3)
    return IndexOperator("unit-op").add_index(IndexAccessor(index))


class TestCarrierFormat:
    def test_roundtrip(self):
        c = make_carrier("v", (("k",),), (None,))
        assert open_carrier(c) == ("v", (("k",),), (None,))

    def test_not_a_carrier(self):
        with pytest.raises(TypeError):
            open_carrier(("x", "y"))


class TestPreProcessFn(object):
    def test_wraps_in_carrier(self, op, ctx):
        fn = PreProcessFn(op, "op0")
        col = OutputCollector()
        fn.process("k5", "payload", col, ctx)
        ((key, value),) = col.records
        assert key == "k5"
        v1, ikl, ivl = open_carrier(value)
        assert v1 == "payload"
        assert ikl == (("k5",),)
        assert ivl == (None,)

    def test_collects_statistics(self, op, ctx):
        acc = OperatorStatsAccumulator("op0", 1, 2)
        fn = PreProcessFn(op, "op0", acc)
        col = OutputCollector()
        for i in range(10):
            fn.process(f"k{i}", i, col, ctx)
        sample = acc.sample_for("t0")
        assert sample.n1 == 10
        assert sample.index[0].nik == 10
        assert sample.spre_bytes > 0


class TestPreProcessReturnIsChecked:
    """``pre_process`` must hand back the pair to carry on."""

    def test_forgotten_return_names_operator_and_record(self, op, ctx):
        class Forgetful(IndexOperator):
            def pre_process(self, key, value, index_input):
                index_input.put(0, key)  # ... and no ``return key, value``

        forgetful = Forgetful("f").add_index(op.accessors[0])
        col = OutputCollector()
        with pytest.raises(DataFlowError, match=r"pre_process of op7 .*'k5'.*None"):
            run_chain([PreProcessFn(forgetful, "op7")], [("k5", 2)], ctx)
        with pytest.raises(DataFlowError, match="op7"):
            PreProcessFn(forgetful, "op7").process("k5", 2, col, ctx)
        assert col.records == [] and ctx.input_bytes is None

    @pytest.mark.parametrize(
        "returned", ["ab", ("k", "v", "w"), ("k",), {"k": 1, "v": 2}, b"kv", 7]
    )
    def test_anything_but_a_pair_is_refused_not_unpacked(self, op, ctx, returned):
        # The string "ab" used to be unpacked into key 'a', value 'b'.
        class Returns(IndexOperator):
            def pre_process(self, key, value, index_input):
                return returned

        fn = PreProcessFn(Returns("r").add_index(op.accessors[0]), "op0")
        col = OutputCollector()
        with pytest.raises(DataFlowError, match="op0.*'k5'"):
            fn.process("k5", "payload", col, ctx)
        assert (col.records, col.sizes, col.bytes) == ([], [], 0)

    def test_a_failing_record_leaves_the_collector_consistent(self, op, ctx):
        class SecondFails(IndexOperator):
            def pre_process(self, key, value, index_input):
                return (key, value) if value else None

        acc = OperatorStatsAccumulator("op0", 1, 2)
        fn = PreProcessFn(SecondFails("s").add_index(op.accessors[0]), "op0", acc)
        col = OutputCollector()
        with pytest.raises(DataFlowError):
            fn.run([("a", 1), ("b", 0), ("c", 1)], [9, 9, 9], col, ctx)
        assert [k for k, _ in col.records] == ["a"]
        assert len(col.sizes) == 1 and col.bytes == sum(col.sizes)
        assert acc.sample_for("t0").n1 == 1

    def test_a_record_that_dies_part_way_counts_none_of_its_keys(self, ctx):
        """Nik, Sik and the sketches accrue per completed record: the
        second record's index-0 key used to be counted although sizing
        its index-1 key raised."""

        class Unsizable:
            def wire_size(self):
                raise RuntimeError("cannot size")

        class TwoIndices(IndexOperator):
            def pre_process(self, key, value, index_input):
                index_input.put(0, key)
                index_input.put(1, Unsizable() if value == "bad" else value)
                return key, value

        def sample_after(records):
            op = TwoIndices("two")
            for name in ("i0", "i1"):
                op.add_index(IndexAccessor(MappingIndex(name, {})))
            acc = OperatorStatsAccumulator("op0", 2, 2)
            try:
                PreProcessFn(op, "op0", acc).run(
                    records, [sizeof_pair(*r) for r in records], OutputCollector(), ctx
                )
            except RuntimeError:
                pass
            return acc.sample_for("t0"), [acc.fm[j].bitmaps for j in range(2)]

        (died, died_fm), (whole, whole_fm) = (
            sample_after([(1, 7), (2, "bad")]),
            sample_after([(1, 7)]),
        )
        assert [(s.nik, s.sik_bytes) for s in died.index] == [(1, 8.0), (1, 8.0)]
        assert died.n1 == 1
        assert died == whole and died_fm == whole_fm

    def test_a_list_pair_is_still_a_pair(self, op, ctx):
        class ReturnsList(IndexOperator):
            def pre_process(self, key, value, index_input):
                return [key, value]

        col = OutputCollector()
        PreProcessFn(ReturnsList("l").add_index(op.accessors[0]), "op0").process(
            "k5", "payload", col, ctx
        )
        assert col.records == [("k5", make_carrier("payload", ((),), (None,)))]


class TestLookupFnModes:
    def _carrier_for(self, key):
        return (key, make_carrier("v", ((key,),), (None,)))

    def test_baseline_fills_results(self, op, ctx):
        fn = LookupFn(op, "op0", 0)
        col = OutputCollector()
        k, c = self._carrier_for("k3")
        fn.process(k, c, col, ctx)
        _v1, _ikl, ivl = open_carrier(col.records[0][1])
        assert ivl == (((3,),),)

    def test_baseline_charges_time(self, op, ctx):
        fn = LookupFn(op, "op0", 0)
        col = OutputCollector()
        fn.process(*self._carrier_for("k3"), col, ctx)
        assert ctx.charged_time >= 1e-3

    def test_cache_mode_saves_second_lookup(self, op, ctx):
        fn = LookupFn(op, "op0", 0, use_cache=True)
        col = OutputCollector()
        fn.process(*self._carrier_for("k3"), col, ctx)
        served = op.accessors[0].index.lookups_served
        fn.process(*self._carrier_for("k3"), col, ctx)
        assert op.accessors[0].index.lookups_served == served
        assert len(col.records) == 2

    def test_dedup_adjacent_memo(self, op, ctx):
        fn = LookupFn(op, "op0", 0, dedup_adjacent=True)
        col = OutputCollector()
        fn.start(ctx)
        for _ in range(5):
            fn.process(*self._carrier_for("k7"), col, ctx)
        assert op.accessors[0].index.lookups_served == 1

    def test_memo_resets_per_task(self, op, ctx):
        fn = LookupFn(op, "op0", 0, dedup_adjacent=True)
        col = OutputCollector()
        fn.start(ctx)
        fn.process(*self._carrier_for("k7"), col, ctx)
        fn.start(ctx)  # new task
        fn.process(*self._carrier_for("k7"), col, ctx)
        assert op.accessors[0].index.lookups_served == 2

    def test_assume_local_charges_service_only(self, op, ctx):
        fn = LookupFn(op, "op0", 0, assume_local=True)
        col = OutputCollector()
        fn.process(*self._carrier_for("k3"), col, ctx)
        assert ctx.charged_time == pytest.approx(1e-3)

    def test_missing_key_empty_result(self, op, ctx):
        fn = LookupFn(op, "op0", 0)
        col = OutputCollector()
        fn.process(*self._carrier_for("nope"), col, ctx)
        _v1, _ikl, ivl = open_carrier(col.records[0][1])
        assert ivl == (((),),)

    def test_batch_size_one_never_multigets(self, op, ctx):
        # Pinned: batch_size=1 means "fetch each missing key at once
        # with a single lookup", not "a batch that drains per record".
        # On a native-multiget index the latter would turn this record's
        # three lookups into one C_req + 3*C_key request and move
        # simulated time.
        index = op.accessors[0].index
        tm = ctx.time_model
        carrier = make_carrier("v", (("k1", "k2", "k3"),), (None,))

        fn = LookupFn(
            op, "op0", 0, assume_local=True, settings=LookupSettings(batch_size=1)
        )
        fn.start(ctx)
        col = OutputCollector()
        fn.process("r", carrier, col, ctx)
        fn.finish(col, ctx)
        assert ctx.charged_time == pytest.approx(3 * tm.local_lookup_time(1e-3))
        assert ctx.counters.get("lookup", "fetches") == 3
        assert ctx.counters.group("batch") == {}
        assert index.lookups_served == 3

        ctx4 = TaskContext(ctx.node, tm, task_id="t1")
        fn4 = LookupFn(
            op, "op0", 0, assume_local=True, settings=LookupSettings(batch_size=4)
        )
        fn4.start(ctx4)
        col4 = OutputCollector()
        fn4.process("r", carrier, col4, ctx4)
        fn4.finish(col4, ctx4)
        assert ctx4.charged_time == pytest.approx(
            tm.local_batch_lookup_time(index.batch_service_time(3))
        )
        assert ctx4.counters.get("lookup", "fetches") == 3
        assert ctx4.counters.get("batch", "batches_issued") == 1
        assert ctx4.counters.get("batch", "keys_batched") == 3
        assert index.lookups_served == 6
        assert col4.records == col.records

    def test_record_with_no_keys_skips_lookup(self, op, ctx):
        fn = LookupFn(op, "op0", 0)
        col = OutputCollector()
        carrier = make_carrier("v", ((),), (None,))
        fn.process("k", carrier, col, ctx)
        assert op.accessors[0].index.lookups_served == 0

    def test_lru_hit_after_a_refetch_carries_the_refetched_size(self, ctx):
        """The LRU holds a result's size beside its values: once ``a``
        was evicted and fetched again, a hit on it fills the slot with
        the size of what the re-fetch returned, not of what the evicted
        entry held."""
        mapping = {"a": ["x"], "b": ["y"]}
        index = MappingIndex("m", mapping, service_time=1e-3)
        op = IndexOperator("unit-op").add_index(IndexAccessor(index))
        pre = PreProcessFn(op, "op0")
        fn = LookupFn(op, "op0", 0, settings=LookupSettings(cache_capacity=1),
                      use_cache=True)

        def run(keys):
            out = run_chain_collected([pre, fn], [(k, "v") for k in keys], ctx)
            assert out.sizes == [sizeof_pair(k, v) for k, v in out.records]
            return out

        run(["a", "b"])  # b evicts a
        mapping["a"] = ["a value that is longer than x", 2.5]
        out = run(["a", "a"])  # a fetched again, then an LRU hit
        (cache,) = fn.pipeline._node_caches.values()
        assert (index.lookups_served, cache.hits) == (3, 1)
        assert out.sizes[0] == out.sizes[1]
        assert out.records[1][1][3] == ((("a value that is longer than x", 2.5),),)


class TestPostProcessFn:
    def test_default_post_emits(self, op, ctx):
        fn = PostProcessFn(op, "op0")
        col = OutputCollector()
        carrier = make_carrier("v", (("k3",),), (((3,),),))
        fn.process("k3", carrier, col, ctx)
        assert col.records == [("k3", ("v", (3,)))]

    def test_records_spost(self, op, ctx):
        acc = OperatorStatsAccumulator("op0", 1, 2)
        fn = PostProcessFn(op, "op0", acc)
        col = OutputCollector()
        fn.process("k3", make_carrier("v", (("k3",),), (((3,),),)), col, ctx)
        assert acc.sample_for("t0").spost_bytes > 0


class TestKeyByIkFn:
    def test_rekeys_by_lookup_key(self, op, ctx):
        fn = KeyByIkFn(op, "op0", 0)
        col = OutputCollector()
        carrier = make_carrier("v", (("k9",),), (None,))
        fn.process("orig", carrier, col, ctx)
        ((key, value),) = col.records
        assert key == "k9"
        assert value == ("orig", carrier)

    def test_no_key_routes_to_none(self, op, ctx):
        fn = KeyByIkFn(op, "op0", 0)
        col = OutputCollector()
        fn.process("orig", make_carrier("v", ((),), (None,)), col, ctx)
        assert col.records[0][0] is None

    def test_multiple_keys_rejected(self, op, ctx):
        fn = KeyByIkFn(op, "op0", 0)
        col = OutputCollector()
        carrier = make_carrier("v", (("a", "b"),), (None,))
        with pytest.raises(PlanningError, match="repart .* 'orig' has 2 keys for index 0 of op0"):
            fn.process("orig", carrier, col, ctx)


class TestGroupLookupReducer:
    def test_one_lookup_per_group(self, op, ctx):
        red = GroupLookupReducer(op, "op0", 0)
        col = OutputCollector()
        carriers = [
            (f"orig{i}", make_carrier(f"v{i}", (("k2",),), (None,)))
            for i in range(6)
        ]
        red.reduce("k2", carriers, col, ctx)
        assert op.accessors[0].index.lookups_served == 1
        assert len(col.records) == 6
        for (key, value), i in zip(col.records, range(6)):
            assert key == f"orig{i}"
            _v, _ikl, ivl = open_carrier(value)
            assert ivl == (((2,),),)

    def test_none_group_no_lookup(self, op, ctx):
        red = GroupLookupReducer(op, "op0", 0)
        col = OutputCollector()
        carriers = [("o", make_carrier("v", ((),), (None,)))]
        red.reduce(None, carriers, col, ctx)
        assert op.accessors[0].index.lookups_served == 0
        _v, _ikl, ivl = open_carrier(col.records[0][1])
        assert ivl == ((),)


class TestMaterializeReducer:
    def test_passthrough_preserves_grouping(self, ctx):
        red = CarrierMaterializeReducer(0)
        col = OutputCollector()
        group = [
            (k1, make_carrier(v1, (("ik",),), (None,)))
            for k1, v1 in (("a", 1), ("b", 2))
        ]
        red.reduce("ik", group, col, ctx)
        assert col.records == group
        # Called outside a reduce task, it sizes its group on entry.
        assert col.sizes == [sizeof_pair(*r) for r in group]


class TestSchemePartitioner:
    def test_uses_index_scheme(self):
        scheme = HashPartitionScheme(
            8, round_robin_placements(["h0", "h1", "h2"], 8, 2)
        )
        p = SchemePartitioner(scheme)
        for key in range(50):
            assert p.partition(key, 8) == scheme.partition_of(key)

    def test_none_key_goes_to_zero(self):
        scheme = HashPartitionScheme(4, round_robin_placements(["h0"], 4, 1))
        assert SchemePartitioner(scheme).partition(None, 4) == 0


class TestRecordMeter:
    def test_reports_counts_and_bytes(self, ctx):
        seen = {}
        meter = RecordMeter(lambda n, b: seen.update(n=n, b=b))
        col = OutputCollector()
        meter.start(ctx)
        meter.process("k", "vvvv", col, ctx)
        meter.process("k", "vvvv", col, ctx)
        meter.finish(col, ctx)
        assert seen["n"] == 2
        assert seen["b"] == 2 * (1 + 4)
        assert len(col.records) == 2


class CountedValue:
    """A 100-byte value that counts how often it is sized, through the
    documented ``wire_size()`` hook alone."""

    def __init__(self):
        self.walks = 0

    def wire_size(self):
        self.walks += 1
        return 100


class TestWalkBudget:
    """A pair is walked once per chain: S1 sizes it on the way in, the
    stages that only re-wrap it compute what they emit from that size
    and the parts they add, and the Table-1 samples read those numbers
    instead of walking the pair again."""

    def test_one_walk_per_stage_plus_s1(self, op, ctx):
        # (The id predates sizes travelling beside the pairs, when the
        # budget was one walk per stage; it is kept so the test stays
        # the same test.)
        acc = OperatorStatsAccumulator("op0", 1, 2)
        seen = {}
        chain = [
            PreProcessFn(op, "op0", acc),
            LookupFn(op, "op0", 0, acc, record_sidx=True),
            PostProcessFn(op, "op0", acc),
            RecordMeter(lambda n, b: seen.update(n=n, b=b)),
        ]
        value = CountedValue()
        ((key, (out_value, results)),) = run_chain(chain, [("k5", value)], ctx)
        assert (key, results) == ("k5", (5,)) and out_value is value
        # S1 on the way in, and the new pair post_process emits.
        assert value.walks <= 2
        sample = acc.sample_for("t0")
        assert sample.s1_bytes == 102
        assert sample.spre_bytes == 124
        assert sample.sidx_bytes == 139
        assert sample.spost_bytes == 118
        assert seen == {"n": 1, "b": 118}

    @pytest.mark.parametrize("multiget", [False, True])
    def test_fetched_result_sized_once_for_charge_and_siv(self, ctx, multiget):
        result = CountedValue()
        index = MappingIndex("m", {"k": [result]}, service_time=1e-3)
        op = IndexOperator("unit-op").add_index(IndexAccessor(index))
        acc = OperatorStatsAccumulator("op0", 1, 2)
        pipeline = LookupFn(op, "op0", 0, acc).pipeline
        # No partition scheme: the lookup is remote, so the result's
        # size feeds both the transfer charge and the Siv sample.
        if multiget:
            fetched = pipeline.fetch(["k"], ctx)
        else:
            fetched = {"k": pipeline.fetch_one("k", ctx)}
        assert fetched == {"k": (result,)}
        assert result.walks == 1
        assert acc.sample_for("t0").index[0].siv_bytes == 4 + 100
        tm, accessor = ctx.time_model, op.accessors[0]
        assert ctx.charged_time == (
            tm.remote_batch_lookup_time(1, 104, accessor.batch_service_time(1))
            if multiget
            else tm.remote_lookup_time(1, 104, accessor.service_time())
        )


    def test_a_parked_record_is_not_walked_at_the_drain(self, op, ctx):
        """A record waiting for a multiget keeps the size it arrived
        with: the drain computes what it emits as an immediate emit
        does."""
        chain = [
            PreProcessFn(op, "op0"),
            LookupFn(op, "op0", 0, settings=LookupSettings(batch_size=3)),
        ]
        values = [CountedValue() for _ in range(7)]  # two drains + finish
        records = [(f"k{i}", value) for i, value in enumerate(values)]
        out = run_chain(chain, records, ctx)
        assert [key for key, _ in out] == [key for key, _ in records]
        assert ctx.counters.get("batch", "batches_issued") == 3
        assert [value.walks for value in values] == [1] * 7  # S1 alone


class TestCallBudget:
    """One loop per stage per task: what a task attempt fixes is looked
    up per attempt, not per record (DESIGN.md 5.13)."""

    @pytest.mark.parametrize("use_cache", [False, True])
    def test_per_attempt_lookups_do_not_grow_with_the_stream(
        self, op, monkeypatch, use_cache
    ):
        calls = collections.Counter()

        def counted(cls, name):
            inner = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counted(LookupPipeline, "_bind")
        counted(LookupPipeline, "task_sample")
        counted(OperatorStatsAccumulator, "sample_for")

        def task(task_id, num_records):
            acc = OperatorStatsAccumulator("op0", 1, 2)
            chain = [
                PreProcessFn(op, "op0", acc),
                LookupFn(op, "op0", 0, acc, use_cache=use_cache, record_sidx=True),
                PostProcessFn(op, "op0", acc),
            ]
            ctx = TaskContext(
                Cluster(num_nodes=2).nodes[0], TimeModel(), task_id=task_id
            )
            calls.clear()
            out = run_chain(chain, [(f"k{i % 50}", i) for i in range(num_records)], ctx)
            assert len(out) == num_records and acc.sample_for(task_id).n1 == num_records
            return dict(calls)

        small, large = task("t0", 20), task("t1", 200)
        assert small == large
        assert large["_bind"] == 1
        assert large["task_sample"] <= 3 and large["sample_for"] <= 5


class TestPerAttemptState:
    """What a stage resolves once per task attempt -- its sample, its
    node's LRU -- belongs to that attempt alone."""

    def test_retried_attempt_gets_its_own_sample_and_node_cache(self, op):
        """The runtime reuses stage instances across attempts; what a
        stage resolves once per attempt is told by the attempt's
        context, so nothing of a finished attempt leaks into the next:
        not its sample, not its node's LRU -- with or without
        ``start()`` in between."""
        acc = OperatorStatsAccumulator("op0", 1, 2)
        chain = [
            PreProcessFn(op, "op0", acc),
            LookupFn(op, "op0", 0, acc, use_cache=True, record_sidx=True),
            PostProcessFn(op, "op0", acc),
        ]
        nodes = Cluster(num_nodes=2).nodes
        records = [("k1", "v"), ("k1", "v"), ("k2", "v")]

        def attempt(task_id, node, number, via_run_chain=True):
            ctx = TaskContext(node, TimeModel(), task_id=task_id, attempt=number)
            if via_run_chain:
                return ctx, run_chain(chain, records, ctx)
            fed = records
            for stage in chain:  # process() alone, never start()
                col = OutputCollector()
                for key, value in fed:
                    stage.process(key, value, col, ctx)
                fed = col.records
            return ctx, fed

        first_ctx, first_out = attempt("t0", nodes[0], 0)
        # Another task's retry lands on the other node: a cold LRU
        # there, and a sample of its own.
        retry_ctx, retry_out = attempt("t1", nodes[1], 1)
        assert retry_out == first_out
        s0, s1 = acc.sample_for("t0"), acc.sample_for("t1")
        assert s0 is not s1 and s0 == dataclasses.replace(s1, task_id="t0")
        assert (s0.n1, s0.index[0].cache_probes, s0.index[0].cache_misses) == (3, 3, 2)
        assert s0.spost_bytes > 0 and s0.sidx_bytes > s0.spre_bytes > s0.s1_bytes
        assert first_ctx.counters.get("lookup", "fetches") == 2
        assert retry_ctx.counters.get("lookup", "fetches") == 2
        # Back on either node its LRU is warm -- also for a caller that
        # drives process() without start(), right after an attempt of
        # the other task on the other node.
        for task_id, node, sample in (("t0", nodes[0], s0), ("t1", nodes[1], s1)):
            again_ctx, again_out = attempt(task_id, node, 2, via_run_chain=False)
            assert again_out == first_out
            assert again_ctx.counters.get("lookup", "fetches") == 0
            stat = sample.index[0]
            assert (sample.n1, stat.cache_probes, stat.cache_misses) == (6, 6, 2)
        assert s0 == dataclasses.replace(s1, task_id="t0")
        assert acc.num_samples == 2

    def test_start_drops_the_finished_attempts_context(self, op):
        acc = OperatorStatsAccumulator("op0", 1, 2)
        chain = [
            PreProcessFn(op, "op0", acc),
            LookupFn(op, "op0", 0, acc, use_cache=True, record_sidx=True),
            PostProcessFn(op, "op0", acc),
        ]
        node = Cluster(num_nodes=1).nodes[0]
        ctx = TaskContext(node, TimeModel(), task_id="t0")
        run_chain(chain, [("k1", "v")], ctx)
        finished = weakref.ref(ctx)  # and with it ctx.trace, its buffer
        del ctx
        next_ctx = TaskContext(node, TimeModel(), task_id="t1")
        for stage in chain:
            stage.start(next_ctx)
        gc.collect()
        assert finished() is None
