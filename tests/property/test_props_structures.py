"""Property-based tests on the core data structures (hypothesis)."""

import collections
import enum
import heapq
import itertools
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.sizing import sizeof, sizeof_pair, sizeof_records
from repro.core.cache import LRUCache
from repro.core.statistics import FMSketch
from repro.indices.btree import BTree
from repro.indices.rstar import RStarTree
from repro.mapreduce.api import HashPartitioner, stable_hash
from repro.mapreduce.shuffle import group_by_key, partition_records

keys = st.one_of(st.integers(), st.text(max_size=12))


def ladder_sizeof(value):
    """The wire-size model as one ``isinstance`` ladder -- the whole of
    ``sizeof`` before it dispatched on exact types, kept here verbatim
    (recursing into itself, never into ``sizeof``) as the oracle the
    fast path must equal. ``surrogatepass`` is the one edit: it changes
    no valid string's size and lets lone surrogates be generated."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        if value.isascii():
            return len(value)
        return len(value.encode("utf-8", "surrogatepass"))
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (tuple, list)):
        return 4 + sum(ladder_sizeof(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return 4 + sum(ladder_sizeof(item) for item in value)
    if isinstance(value, dict):
        return 4 + sum(
            ladder_sizeof(k) + ladder_sizeof(v) for k, v in value.items()
        )
    wire_size = getattr(value, "wire_size", None)
    if callable(wire_size):
        return int(wire_size())
    return len(repr(value).encode("utf-8", "surrogatepass"))


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class Tagged(str):
    """A ``str`` subclass: exact-type dispatch must not claim it."""


Point = collections.namedtuple("Point", "x y")


class Blob:
    """Reports its own size through the documented hook."""

    def __init__(self, size):
        self.size = size

    def wire_size(self):
        return self.size


class Opaque:
    """No hook: sized by the ``repr`` fallback."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text


# Everything exact-type dispatch could get wrong sits next to the plain
# leaves it handles inline: bool (1, not 8) and IntEnum (8) beside int,
# a str subclass and non-ASCII / lone-surrogate text beside str.
any_text = st.text(st.characters(codec=None, exclude_categories=()), max_size=8)
hashable_leaves = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    any_text,
    st.sampled_from(list(Colour)),
    any_text.map(Tagged),
    st.binary(max_size=8),
)
leaves = st.one_of(
    hashable_leaves,
    st.binary(max_size=8).map(bytearray),
    st.integers(0, 10**6).map(Blob),
    any_text.map(Opaque),
)


def containers(children):
    items = st.lists(children, max_size=4)
    pairs = st.lists(st.tuples(hashable_leaves, children), max_size=3)
    return st.one_of(
        items,
        items.map(tuple),
        st.tuples(children, children).map(lambda xy: Point(*xy)),
        st.lists(hashable_leaves, max_size=4).map(set),
        st.lists(hashable_leaves, max_size=4).map(frozenset),
        pairs.map(dict),
        pairs.map(collections.OrderedDict),
        pairs.map(lambda kvs: collections.defaultdict(list, kvs)),
    )


values = st.recursive(leaves, containers, max_leaves=16)


def nested(depth, leaf):
    """``leaf`` under ``depth`` alternating tuple / list levels, with
    inline leaves beside it at every level."""
    value = leaf
    for level in range(depth):
        value = (level, value, "x") if level % 2 else [value, None, True]
    return value


class TestSizeofProperties:
    @given(values)
    def test_always_nonnegative_int(self, value):
        size = sizeof(value)
        assert isinstance(size, int)
        assert size >= 0

    @given(st.lists(st.integers(), max_size=20))
    def test_superset_never_smaller(self, items):
        assert sizeof(tuple(items) + (1,)) > sizeof(tuple(items))

    @given(values)
    def test_fast_path_equals_ladder(self, value):
        assert sizeof(value) == ladder_sizeof(value)

    @given(st.integers(min_value=4, max_value=9), values)
    def test_fast_path_equals_ladder_when_deeply_nested(self, depth, leaf):
        value = nested(depth, leaf)
        assert sizeof(value) == ladder_sizeof(value)

    @given(st.lists(st.tuples(values, values), max_size=5))
    def test_pair_and_record_sums_equal_ladder(self, records):
        sizes = [ladder_sizeof(k) + ladder_sizeof(v) for k, v in records]
        assert [sizeof_pair(k, v) for k, v in records] == sizes
        assert sizeof_records(records) == sum(sizes)

    def test_cases_exact_type_dispatch_can_get_wrong(self):
        assert sizeof((True, 1)) == 4 + 1 + 8
        assert sizeof([Colour.RED]) == 4 + 8
        assert sizeof((Point(1, "ab"),)) == 4 + (4 + 8 + 2)
        assert sizeof((Tagged("h\u00e9"),)) == 4 + 3
        assert sizeof((b"abc", bytearray(2))) == 4 + 3 + 2
        assert sizeof(({1, 2}, frozenset(["a"]))) == 4 + (4 + 16) + (4 + 1)
        assert sizeof((collections.OrderedDict(a=1),)) == 4 + (4 + 1 + 8)
        assert sizeof((Blob(123), Opaque("x" * 7))) == 4 + 123 + 7


def ladder_stable_hash(value):
    """``stable_hash`` as one ``isinstance`` ladder -- the whole of it
    before it dispatched on exact types (recursing into itself), kept
    here as the oracle the fast path must equal."""
    if isinstance(value, str):
        h = 2166136261
        for ch in value:
            h = ((h ^ ord(ch)) * 16777619) & 0xFFFFFFFF
        return h
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & 0x7FFFFFFF
    if isinstance(value, float):
        if value.is_integer():
            return int(value) & 0x7FFFFFFF
        return ladder_stable_hash(repr(value))
    if isinstance(value, tuple):
        h = 1
        for item in value:
            h = (h * 31 + ladder_stable_hash(item)) & 0x7FFFFFFF
        return h
    if value is None:
        return 0
    return ladder_stable_hash(repr(value))


# What exact-type dispatch could get wrong sits beside the ints and int
# tuples it hashes inline: bool and IntEnum beside int, negative and
# wider-than-31-bit ints, a namedtuple and a str subclass.
hash_leaves = st.one_of(
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.sampled_from(list(Colour)),
    st.floats(),
    st.none(),
    any_text,
    any_text.map(Tagged),
)
hash_values = st.recursive(
    hash_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.tuples(children, children).map(lambda xy: Point(*xy)),
        st.lists(children, max_size=3),  # the repr fallback
    ),
    max_leaves=12,
)


class TestStableHashProperties:
    @given(hash_values)
    def test_fast_path_equals_ladder(self, value):
        assert stable_hash(value) == ladder_stable_hash(value)

    def test_cases_exact_type_dispatch_can_get_wrong(self):
        assert stable_hash(True) == 1 and stable_hash((True, 2)) == (31 + 1) * 31 + 2
        assert stable_hash(Colour.BLUE) == 2 and type(stable_hash(Colour.BLUE)) is int
        assert stable_hash(-1) == 0x7FFFFFFF and stable_hash(2**31 + 5) == 5
        assert stable_hash((-1, 2**40)) == ladder_stable_hash((-1, 2**40))
        assert stable_hash(Point(1, 2)) == stable_hash((1, 2))
        assert stable_hash(Tagged("ab")) == stable_hash("ab")
        assert stable_hash(0.5) == stable_hash("0.5")  # a fraction hashes as its repr

    @given(
        st.lists(
            st.recursive(
                st.one_of(
                    st.integers(-(2**60), 2**60),
                    st.integers(-(2**53), 2**53).map(float),
                    st.booleans(),
                    st.floats(),
                    st.sampled_from([-0.0, 0.0, 0.5, 1e16, 2.0**70]),
                ),
                lambda children: st.lists(children, max_size=3).map(tuple),
                max_leaves=6,
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_equal_keys_hash_alike(self, ks):
        """Python's ``__hash__`` contract, which the LRU, the reuse store
        and the KV store's placement must all agree on."""
        for a, b in itertools.combinations(ks, 2):
            if a == b:
                assert stable_hash(a) == stable_hash(b), (a, b)
        # Pinned, so that the hash stays the same across processes.
        assert [stable_hash(k) for k in (1, 1.0, True, -0.0, (1.0, "a"), 0.5)] == [
            1, 1, 1, 0, 1678519564, 1417721042
        ]

    @given(keys)
    def test_deterministic(self, key):
        assert stable_hash(key) == stable_hash(key)

    @given(keys)
    def test_nonnegative(self, key):
        assert stable_hash(key) >= 0

    @given(st.lists(keys, min_size=1), st.integers(min_value=1, max_value=64))
    def test_partitioner_in_range(self, ks, n):
        p = HashPartitioner()
        for k in ks:
            assert 0 <= p.partition(k, n) < n


class TestLRUCacheProperties:
    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers()), max_size=200),
        st.integers(min_value=1, max_value=16),
    )
    def test_size_never_exceeds_capacity(self, ops, capacity):
        cache = LRUCache(capacity)
        for key, value in ops:
            cache.put(key, value)
            assert len(cache) <= capacity

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    def test_hit_returns_last_put_value(self, ks):
        cache = LRUCache(64)
        latest = {}
        for i, k in enumerate(ks):
            cache.put(k, i)
            latest[k] = i
        for k, want in latest.items():
            hit, got = cache.get(k)
            assert hit and got == want

    @given(st.lists(st.integers(0, 1000), max_size=300))
    def test_probe_accounting_consistent(self, ks):
        cache = LRUCache(8)
        for k in ks:
            hit, _ = cache.get(k)
            if not hit:
                cache.put(k, k)
        assert cache.hits + cache.misses == cache.probes == len(ks)


class TestFMSketchProperties:
    @given(st.lists(st.integers(), max_size=500))
    @settings(max_examples=30)
    def test_merge_commutative(self, ks):
        half = len(ks) // 2
        a, b = FMSketch(), FMSketch()
        for k in ks[:half]:
            a.add(k)
        for k in ks[half:]:
            b.add(k)
        ab = a.copy()
        ab.merge(b)
        ba = b.copy()
        ba.merge(a)
        assert ab.bitmaps == ba.bitmaps

    @given(st.lists(st.integers(), max_size=300))
    @settings(max_examples=30)
    def test_insertion_order_irrelevant(self, ks):
        a, b = FMSketch(), FMSketch()
        for k in ks:
            a.add(k)
        for k in reversed(ks):
            b.add(k)
        assert a.bitmaps == b.bitmaps

    @given(st.sets(st.integers(), min_size=50, max_size=2000))
    @settings(max_examples=20)
    def test_estimate_within_factor_three(self, distinct):
        fm = FMSketch()
        for k in distinct:
            fm.add(k)
        est = fm.estimate()
        assert len(distinct) / 3 <= est <= len(distinct) * 3

    @given(st.lists(st.integers(), max_size=200))
    @settings(max_examples=30)
    def test_estimate_monotone_under_merge(self, ks):
        a = FMSketch()
        for k in ks:
            a.add(k)
        merged = a.copy()
        extra = FMSketch()
        for k in range(50):
            extra.add(f"x{k}")
        merged.merge(extra)
        assert merged.estimate() >= a.estimate() - 1e-9


class TestBTreeProperties:
    @given(st.lists(st.integers(-1000, 1000), max_size=300))
    @settings(max_examples=30)
    def test_search_matches_dict(self, ks):
        tree = BTree(t=3)
        model = {}
        for i, k in enumerate(ks):
            tree.insert(k, i)
            model.setdefault(k, []).append(i)
        for k in set(ks) | {9999}:
            assert tree.search(k) == model.get(k, [])

    @given(st.lists(st.integers(-1000, 1000), max_size=300))
    @settings(max_examples=30)
    def test_invariants_hold(self, ks):
        tree = BTree(t=2)
        for k in ks:
            tree.insert(k, k)
        tree.check_invariants()

    @given(
        st.lists(st.integers(0, 500), max_size=200),
        st.integers(0, 500),
        st.integers(0, 500),
    )
    @settings(max_examples=30)
    def test_range_scan_matches_filter(self, ks, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        tree = BTree(t=3)
        for k in ks:
            tree.insert(k, k)
        got = sorted(k for k, _v in tree.range_scan(lo, hi))
        want = sorted(k for k in ks if lo <= k <= hi)
        assert got == want


def best_first_knn(tree, point, k):
    """``RStarTree.knn`` as it was before its loop was inlined and
    pruned, kept here verbatim (``self`` -> ``tree``) as the oracle the
    kernel must equal: every entry of every visited node is measured
    with ``Rect.min_dist2`` and pushed."""
    if tree._size == 0 or k <= 0:
        return []
    counter = itertools.count()
    heap = [(0.0, next(counter), tree.root, None)]
    out = []
    while heap and len(out) < k:
        dist2, _, node, payload = heapq.heappop(heap)
        if node is None:
            out.append((math.sqrt(dist2), payload))
            continue
        for e in node.entries:
            d2 = e.rect.min_dist2(point)
            if node.leaf:
                heapq.heappush(heap, (d2, next(counter), None, e.payload))
            else:
                heapq.heappush(heap, (d2, next(counter), e.child, None))
    return out


class TestRStarProperties:
    coords = st.floats(
        min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
    )
    # A small integer lattice makes duplicate points, equidistant ties
    # and collinear runs the common case rather than the rare one; the
    # wide floats reach squared distances that overflow to ``inf``
    # (bulk-loaded trees only: ``insert`` squares with ``** 2``, which
    # raises OverflowError past 1e154 -- not this kernel's business).
    lattice = st.integers(-4, 4).map(float)
    point_sets = st.one_of(
        st.lists(st.tuples(lattice, lattice), max_size=150),
        st.lists(st.tuples(lattice, st.just(1.0)), max_size=60),
        st.lists(st.tuples(coords, coords), max_size=150),
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=40,
        ),
    )

    # On the data's lattice, between its points, outside its bounds.
    queries = st.one_of(
        st.tuples(lattice, lattice),
        st.tuples(
            st.integers(-9, 9).map(lambda c: c / 2), st.integers(-9, 9).map(float)
        ),
        st.tuples(coords, coords),
    )

    @given(point_sets, queries, st.sampled_from([4, 5, 6, 16]), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_knn_equals_unpruned_best_first(self, points, query, fanout, bulk):
        pairs = [(p, i) for i, p in enumerate(points)]
        if bulk:
            tree = RStarTree.bulk_load(pairs, max_entries=fanout)
        else:
            assume(all(abs(c) <= 1e100 for p in points for c in p))
            tree = RStarTree(max_entries=fanout)
            for p, i in pairs:
                tree.insert(p, i)
        for k in (1, 10, len(points), len(points) + 3):
            got = tree.knn(query, k)
            # Same payloads in the same order (ties included) at the
            # very same doubles.
            assert got == best_first_knn(tree, query, k)
            assert len(got) == min(k, len(points))

    @given(
        st.lists(st.tuples(lattice, lattice), max_size=40),
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.tuples(lattice, lattice)),
                st.tuples(st.just("delete"), st.integers(0, 10**6)),
                st.tuples(st.just("query"), queries),
            ),
            max_size=60,
        ),
        st.sampled_from([4, 5, 16]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_knn_between_inserts_and_deletes(self, points, ops, fanout, bulk):
        """The oracle reads the entries, the kernel the rows derived from
        them: a row left stale by an insert or a delete shows here."""
        live = dict(enumerate(points))
        if bulk:
            tree = RStarTree.bulk_load([(p, i) for i, p in live.items()], fanout)
        else:
            tree = RStarTree(max_entries=fanout)
            for i, p in live.items():
                tree.insert(p, i)
        next_id = len(points)
        for op, arg in ops:
            if op == "insert":
                tree.insert(arg, next_id)
                live[next_id] = arg
                next_id += 1
            elif op == "delete":
                if live:
                    victim = sorted(live)[arg % len(live)]
                    assert tree.delete(live.pop(victim), victim)
                assert not tree.delete((99.0, 99.0), -1)
            else:
                for k in (1, len(live), len(live) + 3):
                    assert tree.knn(arg, k) == best_first_knn(tree, arg, k)
        tree.check_invariants()
        got = tree.knn((0.5, -1.5), len(live) + 3)
        assert got == best_first_knn(tree, (0.5, -1.5), len(live) + 3)
        assert sorted(pid for _d, pid in got) == sorted(live)

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=120))
    @settings(max_examples=25, deadline=None)
    def test_knn_matches_brute_force(self, points):
        tree = RStarTree(max_entries=6)
        for i, p in enumerate(points):
            tree.insert(p, i)
        tree.check_invariants()
        q = (0.0, 0.0)
        k = min(5, len(points))
        got = [pid for _d, pid in tree.knn(q, k)]
        want_dists = sorted(math.dist(p, q) for p in points)[:k]
        got_dists = sorted(math.dist(points[pid], q) for pid in got)
        for a, b in zip(got_dists, want_dists):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=150))
    @settings(max_examples=25, deadline=None)
    def test_size_matches_insertions(self, points):
        tree = RStarTree(max_entries=4)
        for i, p in enumerate(points):
            tree.insert(p, i)
        assert len(tree) == len(points)


class TestShuffleProperties:
    records = st.lists(
        st.tuples(st.integers(0, 50), st.integers()), max_size=300
    )

    @given(records, st.integers(min_value=1, max_value=16))
    def test_partitioning_is_a_partition(self, recs, n):
        buckets = partition_records(recs, HashPartitioner(), n)
        flat = [r for b in buckets for r in b]
        assert sorted(flat) == sorted(recs)

    @given(records)
    def test_grouping_preserves_multiset(self, recs):
        groups = group_by_key(recs)
        flat = [(k, v) for k, vs in groups for v in vs]
        assert sorted(flat) == sorted(recs)

    @given(records)
    def test_groups_have_unique_keys(self, recs):
        groups = group_by_key(recs)
        ks = [k for k, _ in groups]
        assert len(ks) == len(set(ks))
