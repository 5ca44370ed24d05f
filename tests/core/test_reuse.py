"""Unit and integration tests for the cross-job ReuseStore.

Covers the store itself (LRU eviction, per-host isolation, versioned
invalidation, snapshot/restore, planner seeding) and its wiring into
the strategy layer (zero-cost probes, counters, stale entries never
served).
"""

import pytest

from repro.core.accessor import IndexAccessor
from repro.core.operator import IndexOperator
from repro.core.reuse import CAPACITY_PER_HOST, ReuseSession, ReuseStore
from repro.core.strategy import (
    GroupLookupReducer,
    LookupFn,
    LookupSettings,
    make_carrier,
)
from repro.indices.base import MappingIndex
from repro.indices.dynamic import DynamicComputedIndex
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import OutputCollector, TaskContext
from repro.simcluster.cluster import Cluster
from repro.simcluster.timemodel import TimeModel


@pytest.fixture
def cluster():
    return Cluster(num_nodes=3)


@pytest.fixture
def kv(cluster):
    store = DistributedKVStore("reuse-kv", cluster, service_time=2e-3)
    for i in range(50):
        store.put_unique(f"k{i}", i)
    return store


@pytest.fixture
def accessor(kv):
    return IndexAccessor(kv)


def ctx_on(cluster, node=0, task_id="t0"):
    return TaskContext(cluster.nodes[node], TimeModel(), task_id=task_id)


class TestReuseStoreBasics:
    def test_probe_empty_misses(self, accessor):
        store = ReuseStore()
        hit, values, stale = store.probe("h0", accessor, "k1")
        assert (hit, values, stale) == (False, None, False)
        assert len(store) == 0

    def test_admit_then_hit(self, accessor):
        store = ReuseStore()
        assert store.admit("h0", accessor, "k1", (1,)) == 0
        hit, values, stale = store.probe("h0", accessor, "k1")
        assert hit and values == (1,) and not stale

    def test_per_host_isolation(self, accessor):
        # A host only reuses results it fetched itself -- no simulated
        # network transfer is ever elided that was never paid for.
        store = ReuseStore()
        store.admit("h0", accessor, "k1", (1,))
        hit, _, _ = store.probe("h1", accessor, "k1")
        assert not hit

    def test_len_counts_all_hosts(self, accessor):
        store = ReuseStore()
        store.admit("h0", accessor, "k1", (1,))
        store.admit("h1", accessor, "k2", (2,))
        assert len(store) == 2

    def test_readmission_replaces_value(self, accessor):
        store = ReuseStore()
        store.admit("h0", accessor, "k1", (1,))
        store.admit("h0", accessor, "k1", (7,))
        _, values, _ = store.probe("h0", accessor, "k1")
        assert values == (7,)
        assert len(store) == 1


class TestEviction:
    def test_lru_evicts_least_recent(self, accessor):
        store = ReuseStore()
        store.admit("h1", accessor, "other", (0,))
        evicted = sum(
            store.admit("h0", accessor, f"k{i}", (i,))
            for i in range(CAPACITY_PER_HOST + 1)
        )
        assert evicted == 1
        assert not store.probe("h0", accessor, "k0")[0]
        assert store.probe("h1", accessor, "other")[0]
        assert len(store) == CAPACITY_PER_HOST + 1
        # A hit refreshes: k1 outlives k2, the least recent now.
        assert store.probe("h0", accessor, "k1")[0]
        assert store.admit("h0", accessor, "new", (0,)) == 1
        assert store.probe("h0", accessor, "k1")[0]
        assert not store.probe("h0", accessor, "k2")[0]


class TestVersionedInvalidation:
    def test_kvstore_write_stales_entries(self, cluster, kv, accessor):
        store = ReuseStore()
        store.admit("h0", accessor, "k1", (1,))
        kv.put("k99", "new")  # epoch bump
        hit, values, stale = store.probe("h0", accessor, "k1")
        assert not hit and stale and values is None
        # The entry was dropped, not retained: a re-probe is a plain miss.
        hit, _, stale = store.probe("h0", accessor, "k1")
        assert not hit and not stale

    @pytest.mark.parametrize("mutate", ["put", "put_unique", "delete"])
    def test_every_kvstore_write_path_bumps_epoch(self, kv, mutate):
        before = kv.epoch
        if mutate == "put":
            kv.put("k0", "extra")
        elif mutate == "put_unique":
            kv.put_unique("fresh", 1)
        else:
            kv.delete("k0")
        assert kv.epoch > before

    def test_delete_of_absent_key_is_not_a_mutation(self, kv):
        before = kv.epoch
        assert not kv.delete("never-there")
        assert kv.epoch == before

    def test_dynamic_replace_compute_invalidates(self, cluster):
        index = DynamicComputedIndex("dyn", lambda k: [k * 2])
        accessor = IndexAccessor(index)
        store = ReuseStore()
        store.admit("h0", accessor, 3, (6,))
        index.replace_compute(lambda k: [k * 10])
        hit, _, stale = store.probe("h0", accessor, 3)
        assert not hit and stale

    def test_fingerprint_is_second_line_of_defence(self, cluster):
        # Out-of-band mutation that never touches the epoch still
        # invalidates, because the content fingerprint changed.
        class Fickle(MappingIndex):
            def fingerprint(self):
                return self._fp

        index = Fickle("fickle", {"k": [1]})
        index._fp = 1
        accessor = IndexAccessor(index)
        store = ReuseStore()
        store.admit("h0", accessor, "k", (1,))
        index._fp = 2
        hit, _, stale = store.probe("h0", accessor, "k")
        assert not hit and stale

    def test_explicit_invalidate(self, accessor, kv, cluster):
        other = IndexAccessor(
            DistributedKVStore("other", cluster, service_time=1e-3)
        )
        store = ReuseStore()
        store.admit("h0", accessor, "k1", (1,))
        store.admit("h0", other, "k1", (2,))
        assert store.invalidate(accessor) == 1  # only that index's
        assert len(store) == 1
        assert store.invalidate() == 1  # everything
        assert len(store) == 0


class TestPlannerSeeding:
    def test_seeded_hit_ratio_is_mean_over_hosts(self, accessor):
        store = ReuseStore()
        for i in range(10):
            store.admit("h0", accessor, f"k{i}", (i,))
        # 10 live entries on 1 of 4 hosts, 20 distinct keys expected:
        # (10/20 + 0 + 0 + 0) / 4
        assert store.seeded_hit_ratio(accessor, 20, 4) == pytest.approx(0.125)

    def test_seeded_hit_ratio_caps_per_host_at_one(self, accessor):
        store = ReuseStore()
        for i in range(30):
            store.admit("h0", accessor, f"k{i}", (i,))
        assert store.seeded_hit_ratio(accessor, 10, 1) == 1.0

    def test_seeded_hit_ratio_ignores_stale_and_foreign(
        self, kv, accessor, cluster
    ):
        other = IndexAccessor(
            DistributedKVStore("other", cluster, service_time=1e-3)
        )
        store = ReuseStore()
        store.admit("h0", accessor, "k1", (1,))
        store.admit("h0", other, "x", (9,))
        kv.put("k99", "bump")  # stales accessor's entry only
        assert store.seeded_hit_ratio(accessor, 4, 1) == 0.0
        assert store.seeded_hit_ratio(other, 4, 1) == pytest.approx(0.25)

    def test_degenerate_inputs(self, accessor):
        store = ReuseStore()
        assert store.seeded_hit_ratio(accessor, 0, 4) == 0.0
        assert store.seeded_hit_ratio(accessor, 10, 0) == 0.0


class TestSnapshotRestore:
    def test_roundtrip_preserves_entries_and_counts(self, accessor):
        # The store keeps no counts of its own: a restored store makes
        # the next job's reuse.* counters what they were at the snapshot.
        store = ReuseStore()
        store.admit("h0", accessor, "k1", (1,))
        snap = store.snapshot()
        store.admit("h0", accessor, "k2", (2,))
        store.admit("h1", accessor, "k3", (3,))
        store.restore(snap)
        assert len(store) == 1
        assert store.probe("h0", accessor, "k1")[:2] == (True, (1,))
        assert not store.probe("h0", accessor, "k2")[0]

    def test_snapshot_is_deep(self, accessor):
        # Mutating the live store must not corrupt the snapshot (the
        # bench harness restores the same snapshot around traced
        # re-runs).
        store = ReuseStore()
        store.admit("h0", accessor, "k1", (1,))
        snap = store.snapshot()
        store.probe("h0", accessor, "k1")  # moves the live entry
        store.restore(snap)
        store.restore(snap)  # restoring twice from one snapshot works
        hit, values, _ = store.probe("h0", accessor, "k1")
        assert hit and values == (1,)


class TestSessionHandle:
    def test_session_builds_store_and_delegates(self, accessor):
        """``ReuseSession`` is the store itself, under its older name:
        what a driver constructs by it is what a runner takes."""
        session = ReuseSession()
        assert type(session) is ReuseStore
        session.admit("h0", accessor, "k", (1,))
        assert len(session) == 1
        snap = session.snapshot()
        assert session.invalidate() == 1
        session.restore(snap)
        assert len(session) == 1


class TestStrategyIntegration:
    """LookupFn / GroupLookupReducer against a shared store."""

    def carrier(self, key):
        return key, make_carrier("v", ((key,),), (None,))

    def fresh_fn(self, kv, store, **kwargs):
        op = IndexOperator("op").add_index(IndexAccessor(kv))
        settings = LookupSettings(reuse=store)
        return LookupFn(op, "op", 0, settings=settings, **kwargs), op

    def test_second_job_skips_fetch_and_charges_nothing(self, cluster, kv):
        store = ReuseStore()
        fn1, op1 = self.fresh_fn(kv, store)
        ctx1 = ctx_on(cluster)
        fn1.process(*self.carrier("k3"), OutputCollector(), ctx1)
        assert ctx1.charged_time > 0  # the fetch was paid for
        served = kv.lookups_served

        fn2, op2 = self.fresh_fn(kv, store)  # "next job": fresh operators
        ctx2 = ctx_on(cluster)
        col = OutputCollector()
        fn2.process(*self.carrier("k3"), col, ctx2)
        assert kv.lookups_served == served  # no fetch
        assert ctx2.charged_time == 0.0  # probes are zero-cost
        assert len(col.records) == 1
        assert ctx2.counters.group("reuse") == {"probes": 1.0, "hits": 1.0}

    def test_cold_store_charges_exactly_like_no_store(self, cluster, kv):
        ctx_without = ctx_on(cluster)
        fn0, _ = self.fresh_fn(kv, None)
        fn0.process(*self.carrier("k5"), OutputCollector(), ctx_without)

        ctx_with = ctx_on(cluster)
        fn1, _ = self.fresh_fn(kv, ReuseStore())
        fn1.process(*self.carrier("k5"), OutputCollector(), ctx_with)
        assert ctx_with.charged_time == ctx_without.charged_time

    def test_stale_entry_refetches_fresh_values(self, cluster, kv):
        store = ReuseStore()
        fn1, _ = self.fresh_fn(kv, store)
        fn1.process(*self.carrier("k3"), OutputCollector(), ctx_on(cluster))
        kv.delete("k3")
        kv.put_unique("k3", "fresh")

        fn2, _ = self.fresh_fn(kv, store)
        ctx = ctx_on(cluster)
        col = OutputCollector()
        fn2.process(*self.carrier("k3"), col, ctx)
        counters = ctx.counters.group("reuse")
        assert counters["stale_drops"] == 1.0
        assert counters["misses"] == 1.0
        _v, _ikl, ivl = col.records[0][1][1], None, None
        # The emitted result is the fresh value, never the stale one.
        from repro.core.strategy import open_carrier

        _v1, _ikl, ivl = open_carrier(col.records[0][1])
        assert ivl == ((("fresh",),),)

    def test_cache_mode_admits_on_lru_miss_only(self, cluster, kv):
        store = ReuseStore()
        fn, _ = self.fresh_fn(kv, store, use_cache=True)
        ctx = ctx_on(cluster)
        col = OutputCollector()
        fn.process(*self.carrier("k3"), col, ctx)  # LRU miss -> fetch+admit
        fn.process(*self.carrier("k3"), col, ctx)  # LRU hit -> no probe
        counters = ctx.counters.group("reuse")
        assert counters["probes"] == 1.0
        assert counters["misses"] == 1.0
        assert counters["admitted"] == 1.0
        assert len(store) == 1

    def test_group_reducer_reuses_across_jobs(self, cluster, kv):
        store = ReuseStore()

        def fresh_reducer():
            op = IndexOperator("op").add_index(IndexAccessor(kv))
            return GroupLookupReducer(op, "op", 0, settings=LookupSettings(reuse=store))

        carriers = [("o", make_carrier("v", (("k4",),), (None,)))]
        red1 = fresh_reducer()
        red1.reduce("k4", carriers, OutputCollector(), ctx_on(cluster))
        served = kv.lookups_served

        red2 = fresh_reducer()
        ctx = ctx_on(cluster)
        col = OutputCollector()
        red2.reduce("k4", carriers, col, ctx)
        assert kv.lookups_served == served
        assert ctx.charged_time == 0.0
        assert len(col.records) == 1

    def test_reuse_is_per_host(self, cluster, kv):
        store = ReuseStore()
        fn1, _ = self.fresh_fn(kv, store)
        fn1.process(*self.carrier("k3"), OutputCollector(), ctx_on(cluster, 0))
        served = kv.lookups_served
        fn2, _ = self.fresh_fn(kv, store)
        ctx_other = ctx_on(cluster, 1)  # a different host: must fetch
        fn2.process(*self.carrier("k3"), OutputCollector(), ctx_other)
        assert kv.lookups_served == served + 1
