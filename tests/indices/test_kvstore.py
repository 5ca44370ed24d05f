"""Unit tests for the distributed KV store."""

import pytest

from repro.common.errors import IndexLookupError
from repro.indices.kvstore import DistributedKVStore


@pytest.fixture
def kv(cluster):
    return DistributedKVStore("kv", cluster, num_partitions=8)


class TestBasicOps:
    def test_put_and_lookup(self, kv):
        kv.put("a", 1)
        assert kv.lookup("a") == [1]

    def test_multi_value_append(self, kv):
        kv.put("a", 1)
        kv.put("a", 2)
        assert kv.lookup("a") == [1, 2]

    def test_put_unique_overwrites(self, kv):
        kv.put_unique("a", 1)
        kv.put_unique("a", 2)
        assert kv.lookup("a") == [2]

    def test_missing_key_empty(self, kv):
        assert kv.lookup("nope") == []

    def test_strict_mode_raises(self, cluster):
        kv = DistributedKVStore("strict", cluster, strict=True)
        with pytest.raises(IndexLookupError):
            kv.lookup("nope")

    def test_load_bulk(self, kv):
        kv.load([(i, i * 2) for i in range(100)])
        assert kv.lookup(50) == [100]
        assert len(kv) == 100

    def test_lookup_returns_copy(self, kv):
        kv.put("a", 1)
        result = kv.lookup("a")
        result.append(99)
        assert kv.lookup("a") == [1]

    def test_put_unique_over_multivalued_key_fixes_size(self, kv):
        # Regression: put_unique over an existing multi-valued key used
        # to keep counting the dropped values, so __len__/fingerprint
        # drifted and the later delete() underflowed _size.
        kv.put("a", 1)
        kv.put("a", 2)
        kv.put("a", 3)
        assert len(kv) == 3
        kv.put_unique("a", 9)
        assert kv.lookup("a") == [9]
        assert len(kv) == 1
        assert kv.num_keys == 1
        assert kv.delete("a")
        assert len(kv) == 0

    def test_put_unique_size_over_fresh_and_single_keys(self, kv):
        kv.put_unique("a", 1)
        assert len(kv) == 1
        kv.put_unique("a", 2)
        assert len(kv) == 1
        kv.put("b", 1)
        kv.put_unique("b", 2)
        assert len(kv) == 2


class TestPartitioning:
    def test_keys_spread_over_partitions(self, kv):
        kv.load([(i, i) for i in range(500)])
        sizes = kv.partition_sizes()
        assert len(sizes) == 8
        assert all(s > 0 for s in sizes)

    def test_partition_scheme_exposed(self, kv):
        assert kv.partition_scheme is not None
        assert kv.partition_scheme.num_partitions == 8

    def test_hosts_for_key_are_replicas(self, kv, cluster):
        kv.put("a", 1)
        hosts = kv.hosts_for_key("a")
        assert len(hosts) == 3
        assert all(cluster.node_by_host(h) is not None for h in hosts)


class TestAccounting:
    def test_lookups_counted(self, kv):
        kv.put("a", 1)
        kv.lookup("a")
        kv.lookup("a")
        kv.lookup("missing")
        assert kv.lookups_served == 3

    def test_reset(self, kv):
        kv.put("a", 1)
        kv.lookup("a")
        kv.reset_accounting()
        assert kv.lookups_served == 0

    def test_fingerprint_changes_with_content(self, kv):
        before = kv.fingerprint()
        kv.put("a", 1)
        assert kv.fingerprint() != before

    def test_fingerprint_stable_across_lookups(self, kv):
        kv.put("a", 1)
        fp = kv.fingerprint()
        kv.lookup("a")
        assert kv.fingerprint() == fp

    def test_num_keys_vs_len(self, kv):
        kv.put("a", 1)
        kv.put("a", 2)
        assert kv.num_keys == 1
        assert len(kv) == 2

    def test_set_service_time_rejects_negative_and_nan(self, cluster):
        kv = DistributedKVStore("s", cluster, service_time=2e-3)
        for bad in (-1e-3, float("nan")):
            with pytest.raises(ValueError):
                kv.set_service_time(bad)
        assert kv.service_time() == 2e-3
        kv.set_service_time(0.0)
        assert kv.service_time() == 0.0

    def test_service_time_default_and_custom(self, cluster):
        assert DistributedKVStore("d", cluster).service_time() == pytest.approx(0.5e-3)
        assert DistributedKVStore(
            "c", cluster, service_time=2e-3
        ).service_time() == pytest.approx(2e-3)
