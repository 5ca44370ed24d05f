"""Property-based tests (hypothesis): the lookup pipeline records the
same cache-related observables whatever its ``batch_size``.

For any stream -- single-key records, records with 0-3 keys including
in-record duplicates, or reduce groups -- running ``LookupFn`` /
``GroupLookupReducer`` with ``batch_size > 1`` must record exactly the
counters, statistics samples, and reuse-store state that
``batch_size=1`` records -- across the whole cache hierarchy: the
adjacent-duplicate memo, the node-local LRU, and the cross-job
ReuseStore tier. (The equivalence holds under the store's "always"
admission policy; cost-aware admission may legitimately diverge because
batching amortises the per-key refetch cost it gates on.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accessor import IndexAccessor
from repro.core.operator import IndexOperator
from repro.core.reuse import ReuseStore
from repro.core.statistics import OperatorStatsAccumulator
from repro.core.strategy import (
    GroupLookupReducer,
    LookupFn,
    LookupSettings,
    make_carrier,
)
from repro.indices.base import MappingIndex
from repro.mapreduce.api import OutputCollector, TaskContext
from repro.simcluster.cluster import Cluster
from repro.simcluster.timemodel import TimeModel

KEY_DOMAIN = [f"k{i:02d}" for i in range(20)]

# Repeats matter (they exercise memo, LRU, and reuse hits); ghosts miss
# the index entirely (empty results must still be admitted and reused).
a_key = st.one_of(
    st.sampled_from(KEY_DOMAIN), st.sampled_from(["ghost0", "ghost1"])
)
key_lists = st.lists(a_key, max_size=48)

# Records carrying 0-3 keys for the index; a small domain makes
# in-record duplicates (adjacent and not) common.
multi_key_records = st.lists(
    st.lists(a_key, max_size=3).map(tuple), max_size=32
)

# A reduce task's group stream: distinct keys (the shuffle grouped the
# duplicates), plus possibly the keyless group.
group_keys = st.lists(st.one_of(st.none(), a_key), max_size=32, unique=True)

batch_sizes = st.sampled_from([2, 3, 4, 7])


def make_ctx(task_id="prop-parity"):
    cluster = Cluster(num_nodes=2)
    return TaskContext(cluster.nodes[0], TimeModel(), task_id=task_id)


def run_stream(keys, batch_size, use_cache=False, dedup=False, store=None,
               warm_keys=(), reducer=False):
    """Drive one LookupFn over ``keys`` -- one record per element, which
    is a key or a tuple of keys -- or, with ``reducer``, one
    GroupLookupReducer over them as two-carrier groups; returns (ctx,
    stats sample, sorted output records, store)."""
    index = MappingIndex(
        "parity", {k: [f"{k}-v"] for k in KEY_DOMAIN}, service_time=1e-3
    )
    op = IndexOperator("op").add_index(IndexAccessor(index))
    if store is None:
        store = ReuseStore()  # default policy: admission="always"
    if warm_keys:
        warm = LookupFn(op, "op", 0, settings=LookupSettings(reuse=store))
        wctx = make_ctx("prop-warmer")
        warm.start(wctx)
        wcol = OutputCollector()
        for key in warm_keys:
            warm.process(key, make_carrier("v", ((key,),), (None,)), wcol, wctx)
        warm.finish(wcol, wctx)
    acc = OperatorStatsAccumulator("op", 1, 2, 1024)
    ctx = make_ctx()
    col = OutputCollector()
    if reducer:
        red = GroupLookupReducer(
            op, "op", 0, stats=acc,
            settings=LookupSettings(batch_size=batch_size, reuse=store),
        )
        red.start(ctx)
        for i, ik in enumerate(keys):
            iks = () if ik is None else (ik,)
            carriers = [
                ((i, n), make_carrier("v", (iks,), (None,))) for n in range(2)
            ]
            red.reduce(ik, carriers, col, ctx)
        red.finish(col, ctx)
    else:
        fn = LookupFn(
            op, "op", 0, stats=acc, use_cache=use_cache, dedup_adjacent=dedup,
            settings=LookupSettings(batch_size=batch_size, reuse=store),
        )
        fn.start(ctx)
        for i, key in enumerate(keys):
            iks = key if isinstance(key, tuple) else (key,)
            fn.process((i, key), make_carrier("v", (iks,), (None,)), col, ctx)
        fn.finish(col, ctx)
    return ctx, acc.sample_for("prop-parity"), sorted(col.records), store


def assert_parity(keys, batch_size, **kwargs):
    ctx_u, sample_u, out_u, store_u = run_stream(keys, 1, **kwargs)
    ctx_b, sample_b, out_b, store_b = run_stream(keys, batch_size, **kwargs)

    assert out_b == out_u

    # The whole cache.* counter group -- probes, hits, misses -- and the
    # reuse.* group must agree between the two execution shapes. With a
    # store in front of the index, so must the number of keys fetched
    # (lookup.fetch_seconds legitimately differs: a multiget amortises).
    assert ctx_b.counters.group("cache") == ctx_u.counters.group("cache")
    assert ctx_b.counters.group("reuse") == ctx_u.counters.group("reuse")
    assert ctx_b.counters.get("lookup", "fetches") == ctx_u.counters.get(
        "lookup", "fetches"
    )

    # IndexStats samples: per-index cache and reuse tallies.
    for index_b, index_u in zip(sample_b.index, sample_u.index):
        assert index_b.cache_probes == index_u.cache_probes
        assert index_b.cache_misses == index_u.cache_misses
        assert index_b.reuse_probes == index_u.reuse_probes
        assert index_b.reuse_hits == index_u.reuse_hits
        assert index_b.lookups == index_u.lookups
        assert index_b.siv_bytes == index_u.siv_bytes

    # The ReuseStore tier itself ends up holding the same entries.
    assert {h: dict(e) for h, e in store_b.snapshot().items()} == {
        h: dict(e) for h, e in store_u.snapshot().items()
    }


class TestBatchedUnbatchedParity:
    @given(keys=key_lists, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_reuse_tier_cold_store(self, keys, batch_size):
        assert_parity(keys, batch_size)

    @given(keys=key_lists, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_reuse_tier_warm_store(self, keys, batch_size):
        # Pre-populate the store through a prior "job" so hits, misses,
        # and admissions all occur in the measured stream.
        assert_parity(keys, batch_size, warm_keys=KEY_DOMAIN[::2])

    @given(keys=key_lists, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_lru_plus_reuse(self, keys, batch_size):
        assert_parity(keys, batch_size, use_cache=True)

    @given(keys=key_lists, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_memo_plus_reuse(self, keys, batch_size):
        assert_parity(keys, batch_size, dedup=True)

    @given(keys=key_lists, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_full_hierarchy(self, keys, batch_size):
        # memo -> LRU -> ReuseStore -> index, all tiers active at once,
        # against a store warmed by a previous stream.
        assert_parity(
            keys, batch_size, use_cache=True, dedup=True,
            warm_keys=KEY_DOMAIN[1::2],
        )

    @given(records=multi_key_records, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_multi_key_records_full_hierarchy(self, records, batch_size):
        # 0-3 keys per record, in-record duplicates included: at B=1 a
        # record's second copy of a key finds it already fetched; at
        # B>1 it finds it waiting in the same batch.
        assert_parity(
            records, batch_size, use_cache=True, dedup=True,
            warm_keys=KEY_DOMAIN[1::2],
        )

    @given(records=multi_key_records, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_multi_key_records_baseline(self, records, batch_size):
        assert_parity(records, batch_size)

    @given(keys=group_keys, batch_size=st.sampled_from([2, 3, 7]))
    @settings(max_examples=40, deadline=None)
    def test_group_lookup_reducer(self, keys, batch_size):
        assert_parity(keys, batch_size, reducer=True, warm_keys=KEY_DOMAIN[::2])
