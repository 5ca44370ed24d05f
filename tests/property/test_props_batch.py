"""Property-based tests (hypothesis): ``lookup_batch`` is observationally
equivalent to a loop of ``lookup`` calls.

For every index type -- native multiget implementations and the generic
loop fallback alike -- a batch must return exactly what per-key lookups
would, in key order, including under an active fault plan (same per-key
fault decisions, same retry counters). For the loop fallback the charged
simulated time must also match a loop exactly; native implementations
are allowed to amortize time but never to change results.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.errors import IndexLookupError

from repro.indices.base import IndexService, MappingIndex
from repro.indices.btree import DistributedBTree
from repro.indices.inverted import InvertedIndex
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import TaskContext
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan, RetryPolicy

KEY_DOMAIN = [f"k{i:02d}" for i in range(24)]

# Keys drawn from a small domain (repeats matter: they exercise the
# fault plan's per-(key, attempt) determinism) plus ghosts that miss.
key_lists = st.lists(
    st.one_of(
        st.sampled_from(KEY_DOMAIN),
        st.sampled_from(["ghost0", "ghost1"]),
    ),
    max_size=40,
)

fault_seeds = st.integers(min_value=0, max_value=2**16)

RETRY = RetryPolicy(
    max_attempts=4,
    base_backoff=1e-3,
    backoff_multiplier=2.0,
    max_backoff=20e-3,
    jitter=0.5,
    attempt_timeout=5e-3,
)


class LoopOnlyIndex(IndexService):
    """An index with data but no native multiget: exercises the
    ``lookup_batch`` fallback in the base class."""

    def __init__(self, data):
        super().__init__("loop-only", service_time=2e-3)
        self._data = dict(data)

    def _lookup(self, key):
        return list(self._data.get(key, []))


def build_indexes(seed=7):
    """One populated instance of every index type (plus the fallback),
    all built from the same seeded key -> values table."""
    rng = random.Random(seed)
    cluster = Cluster(num_nodes=6)
    values = {
        k: [f"{k}-v{v}" for v in range(rng.randrange(1, 4))] for k in KEY_DOMAIN
    }
    kv = DistributedKVStore("kv", cluster, service_time=2e-3)
    for key, vs in values.items():
        for v in vs:
            kv.put(key, v)
    btree = DistributedBTree(
        "btree",
        cluster,
        [(key, v) for key, vs in values.items() for v in vs],
        service_time=2e-3,
    )
    inv = InvertedIndex("inv", service_time=2e-3)
    for key, vs in values.items():
        for v in vs:
            inv.add_document(v, key)  # doc per value, the key as its term
    return [
        MappingIndex("mapping", values, service_time=2e-3),
        kv,
        btree,
        inv,
        LoopOnlyIndex(values),
    ]


def fresh_pair(fault_seed=None):
    """Two identically-built copies of every index type, optionally with
    identical fault plans, so batch and loop runs cannot share hidden
    state (retry RNG position, accounting, caches)."""
    a, b = build_indexes(), build_indexes()
    if fault_seed is not None:
        for idx in a + b:
            plan = FaultPlan(
                seed=fault_seed,
                lookup_failure_rate=0.08,
                lookup_timeout_rate=0.04,
            )
            idx.set_fault_plan(plan, RETRY)
    return a, b


def make_ctx(cluster=None):
    cluster = cluster or Cluster(num_nodes=2)
    node = cluster.nodes[0]
    return TaskContext(node, cluster.time_model, task_id="prop-batch")


def loop_lookups(idx, keys, ctx):
    """Per-key lookups; discards the (rare, deterministic) examples
    where the fault plan exhausts every retry -- batch and loop raise
    identically there, but comparing partial state is not the point of
    these properties."""
    try:
        return [idx.lookup(k, ctx) for k in keys]
    except IndexLookupError:
        assume(False)


class TestBatchEqualsLoop:
    @given(keys=key_lists)
    @settings(max_examples=40, deadline=None)
    def test_results_identical_clean(self, keys):
        batch_side, loop_side = fresh_pair()
        for idx_b, idx_l in zip(batch_side, loop_side):
            ctx_b, ctx_l = make_ctx(), make_ctx()
            expected = loop_lookups(idx_l, keys, ctx_l)
            assert idx_b.lookup_batch(keys, ctx_b) == expected

    @given(keys=key_lists, seed=fault_seeds)
    @settings(max_examples=40, deadline=None)
    def test_results_identical_under_faults(self, keys, seed):
        # The fault plan decides per (site, key, attempt); serving each
        # batched key through the same retry loop must yield the exact
        # results a per-key loop sees under the same plan.
        batch_side, loop_side = fresh_pair(fault_seed=seed)
        for idx_b, idx_l in zip(batch_side, loop_side):
            ctx_b, ctx_l = make_ctx(), make_ctx()
            expected = loop_lookups(idx_l, keys, ctx_l)
            assert idx_b.lookup_batch(keys, ctx_b) == expected

    @given(keys=key_lists, seed=fault_seeds)
    @settings(max_examples=40, deadline=None)
    def test_retry_counters_identical_under_faults(self, keys, seed):
        batch_side, loop_side = fresh_pair(fault_seed=seed)
        for idx_b, idx_l in zip(batch_side, loop_side):
            ctx_b, ctx_l = make_ctx(), make_ctx()
            loop_lookups(idx_l, keys, ctx_l)
            idx_b.lookup_batch(keys, ctx_b)
            assert ctx_b.counters.group("fault") == ctx_l.counters.group("fault")
            assert idx_b.lookups_served == idx_l.lookups_served == len(keys)

    @given(keys=key_lists, seed=st.one_of(st.none(), fault_seeds))
    @settings(max_examples=40, deadline=None)
    def test_fallback_charges_identical_time(self, keys, seed):
        # The base-class fallback IS a loop, so even the charged
        # simulated time (service + backoff + timeout waits) matches
        # bit for bit. Native multigets may charge less; not tested here.
        batch_side, loop_side = fresh_pair(fault_seed=seed)
        idx_b, idx_l = batch_side[-1], loop_side[-1]
        assert isinstance(idx_b, LoopOnlyIndex) and not idx_b.supports_batch
        ctx_b, ctx_l = make_ctx(), make_ctx()
        loop_lookups(idx_l, keys, ctx_l)
        idx_b.lookup_batch(keys, ctx_b)
        assert ctx_b.charged_time == ctx_l.charged_time


class TestBatchAccounting:
    @given(keys=key_lists)
    @settings(max_examples=30, deadline=None)
    def test_native_batch_accounting(self, keys):
        for idx in build_indexes():
            if not idx.supports_batch:
                continue
            ctx = make_ctx()
            assert len(idx.lookup_batch(keys, ctx)) == len(keys)
            assert idx.lookups_served == len(keys)
            # Batches are counted by the strategy layer that issues
            # them (``batch.*``), never by the index.
            assert ctx.counters.group("batch") == {}

    @given(keys=key_lists)
    @settings(max_examples=30, deadline=None)
    def test_fallback_never_counts_batches(self, keys):
        idx = build_indexes()[-1]
        assert not idx.supports_batch
        ctx = make_ctx()
        idx.lookup_batch(keys, ctx)
        assert idx.lookups_served == len(keys)
        assert ctx.counters.group("batch") == {}

    @given(batch=st.integers(min_value=1, max_value=512))
    def test_batch_service_time_linear(self, batch):
        idx = MappingIndex("m", {}, service_time=3e-3)
        expected = idx.batch_request_overhead() + batch * idx.batch_key_time()
        assert abs(idx.batch_service_time(batch) - expected) < 1e-15
        # B=1 collapses to the plain per-lookup service time.
        assert abs(idx.batch_service_time(1) - 3e-3) < 1e-15
        assert idx.batch_service_time(0) == 0.0
