"""Unit tests for the B-tree and distributed B-tree."""

import random

import pytest

from repro.indices.btree import BTree, DistributedBTree


class TestBTreeBasics:
    def test_empty_search(self):
        assert BTree().search(1) == []

    def test_insert_search(self):
        t = BTree(t=2)
        t.insert(5, "a")
        assert t.search(5) == ["a"]

    def test_duplicate_keys_accumulate(self):
        t = BTree(t=2)
        t.insert(5, "a")
        t.insert(5, "b")
        assert t.search(5) == ["a", "b"]
        assert len(t) == 1
        assert t.num_entries == 2

    def test_many_inserts_random_order(self):
        t = BTree(t=3)
        keys = list(range(2000))
        random.Random(0).shuffle(keys)
        for k in keys:
            t.insert(k, k * 10)
        for k in (0, 1, 999, 1999):
            assert t.search(k) == [k * 10]
        assert t.search(2000) == []
        assert len(t) == 2000

    def test_rejects_degenerate_degree(self):
        with pytest.raises(ValueError):
            BTree(t=1)

    def test_height_grows_logarithmically(self):
        t = BTree(t=2)
        for k in range(1000):
            t.insert(k, k)
        assert t.height() <= 12

    def test_string_keys(self):
        t = BTree(t=2)
        for w in ["pear", "apple", "fig", "date"]:
            t.insert(w, w.upper())
        assert t.search("fig") == ["FIG"]


class TestBTreeInvariants:
    @pytest.mark.parametrize("t", [2, 3, 8])
    @pytest.mark.parametrize("n", [1, 10, 300])
    def test_invariants_after_random_inserts(self, t, n):
        tree = BTree(t=t)
        keys = list(range(n))
        random.Random(t * n).shuffle(keys)
        for k in keys:
            tree.insert(k, k)
        tree.check_invariants()

    def test_invariants_with_duplicates(self):
        tree = BTree(t=2)
        rng = random.Random(7)
        for _ in range(500):
            tree.insert(rng.randrange(50), 1)
        tree.check_invariants()
        assert len(tree) == 50


class TestBTreeRangeScan:
    @pytest.fixture
    def tree(self):
        t = BTree(t=3)
        keys = list(range(0, 200, 2))  # even keys only
        random.Random(1).shuffle(keys)
        for k in keys:
            t.insert(k, f"v{k}")
        return t

    def test_inclusive_bounds(self, tree):
        assert [k for k, _ in tree.range_scan(10, 20)] == [10, 12, 14, 16, 18, 20]

    def test_bounds_between_keys(self, tree):
        assert [k for k, _ in tree.range_scan(11, 15)] == [12, 14]

    def test_empty_range(self, tree):
        assert tree.range_scan(11, 11) == []

    def test_full_range_sorted(self, tree):
        keys = [k for k, _ in tree.range_scan(-1, 1000)]
        assert keys == sorted(keys) == list(range(0, 200, 2))

    def test_items_ordered(self, tree):
        keys = [k for k, _vs in tree.items()]
        assert keys == sorted(keys)


class TestDistributedBTree:
    @pytest.fixture
    def dtree(self, cluster):
        return DistributedBTree(
            "dbt", cluster, [(k, k * 3) for k in range(500)], num_partitions=8
        )

    def test_lookup(self, dtree):
        assert dtree.lookup(123) == [369]
        assert dtree.lookup(9999) == []

    def test_len(self, dtree):
        assert len(dtree) == 500

    def test_partition_scheme_is_range_based(self, dtree):
        scheme = dtree.partition_scheme
        assert scheme.num_partitions == 8
        # contiguous keys map to non-decreasing partitions
        parts = [scheme.partition_of(k) for k in range(500)]
        assert parts == sorted(parts)

    def test_cross_partition_range_scan(self, dtree):
        got = dtree.range_scan(60, 70)
        assert [k for k, _ in got] == list(range(60, 71))

    def test_rejects_empty(self, cluster):
        with pytest.raises(ValueError):
            DistributedBTree("x", cluster, [])

    def test_fewer_items_than_partitions(self, cluster):
        dt = DistributedBTree("x", cluster, [(1, "a"), (2, "b")], num_partitions=8)
        assert dt.lookup(1) == ["a"]
        assert dt.lookup(2) == ["b"]
