"""Unit tests for partition schemes."""

import pytest

from repro.indices.btree import DistributedBTree
from repro.indices.kvstore import DistributedKVStore
from repro.indices.partitioning import (
    HashPartitionScheme,
    RangePartitionScheme,
    round_robin_placements,
)
from repro.indices.rstar import GridRStarForest
from repro.simcluster.cluster import Cluster

HOSTS = [f"node{i:02d}" for i in range(6)]


class TestRoundRobinPlacements:
    def test_shape(self):
        placements = round_robin_placements(HOSTS, 8, 3)
        assert len(placements) == 8
        assert all(len(p) == 3 for p in placements)

    def test_replicas_distinct(self):
        for p in round_robin_placements(HOSTS, 8, 3):
            assert len(set(p)) == 3

    def test_replication_capped(self):
        placements = round_robin_placements(HOSTS[:2], 4, 3)
        assert all(len(p) == 2 for p in placements)

    @pytest.mark.parametrize("replication", [0, -1])
    @pytest.mark.parametrize(
        "build",
        [
            lambda c, r: DistributedKVStore("kv", c, replication=r),
            lambda c, r: DistributedBTree("bt", c, [(1, "a")], replication=r),
            lambda c, r: GridRStarForest(
                "rs", c, [((0.0, 0.0), "a")], k=1, replication=r
            ),
        ],
        ids=["kvstore", "btree", "rstar"],
    )
    def test_store_without_replicas_refused(self, build, replication):
        """A partition with no host cannot be served: the store refuses
        it at construction instead of failing mid-job."""
        with pytest.raises(ValueError, match="replication must be positive"):
            build(Cluster(num_nodes=3), replication)


class TestHashPartitionScheme:
    @pytest.fixture
    def scheme(self):
        return HashPartitionScheme(8, round_robin_placements(HOSTS, 8, 3))

    def test_partition_in_range(self, scheme):
        for key in range(100):
            assert 0 <= scheme.partition_of(key) < 8

    def test_deterministic(self, scheme):
        assert scheme.partition_of("k") == scheme.partition_of("k")

    def test_locations_per_partition(self, scheme):
        for p in range(8):
            assert len(scheme.locations(p)) == 3

    def test_all_hosts(self, scheme):
        assert set(scheme.all_hosts()) == set(HOSTS)

    def test_rejects_mismatched_placements(self):
        with pytest.raises(ValueError):
            HashPartitionScheme(4, [["a"]])

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            HashPartitionScheme(0, [])


class TestRangePartitionScheme:
    @pytest.fixture
    def scheme(self):
        return RangePartitionScheme(
            [10, 20, 30], round_robin_placements(HOSTS, 4, 2)
        )

    def test_routing(self, scheme):
        assert scheme.partition_of(5) == 0
        assert scheme.partition_of(10) == 0
        assert scheme.partition_of(11) == 1
        assert scheme.partition_of(25) == 2
        assert scheme.partition_of(1000) == 3

    def test_num_partitions(self, scheme):
        assert scheme.num_partitions == 4

    def test_boundaries_copied(self, scheme):
        b = scheme.boundaries
        b.append(99)
        assert scheme.boundaries == [10, 20, 30]

    def test_rejects_bad_placement_count(self):
        with pytest.raises(ValueError):
            RangePartitionScheme([1, 2], [["a"]])

    def test_ordering_invariant(self, scheme):
        """Keys in the same partition form a contiguous range."""
        parts = [scheme.partition_of(k) for k in range(50)]
        assert parts == sorted(parts)
