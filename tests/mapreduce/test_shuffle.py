"""Unit tests for the shuffle helpers."""

import pytest

from repro.common.errors import DataFlowError
from repro.mapreduce.api import FnPartitioner, HashPartitioner
from repro.mapreduce.shuffle import (
    bucket_bytes,
    group_by_key,
    group_sized,
    partition_records,
    partition_sized,
)


class TestPartitionRecords:
    def test_every_record_lands_somewhere(self):
        records = [(i, i) for i in range(100)]
        buckets = partition_records(records, HashPartitioner(), 4)
        assert sum(len(b) for b in buckets) == 100

    def test_same_key_same_bucket(self):
        records = [("k", i) for i in range(10)]
        buckets = partition_records(records, HashPartitioner(), 5)
        non_empty = [b for b in buckets if b]
        assert len(non_empty) == 1
        assert len(non_empty[0]) == 10

    def test_single_partition(self):
        records = [(i, i) for i in range(10)]
        buckets = partition_records(records, HashPartitioner(), 1)
        assert len(buckets) == 1 and len(buckets[0]) == 10

    def test_empty_input(self):
        assert partition_records([], HashPartitioner(), 3) == [[], [], []]

    def test_negative_partition_is_refused_not_filed_from_the_end(self):
        # Regression: buckets[-1] silently filed every pair under the
        # last reducer.
        with pytest.raises(DataFlowError, match=r"'k'.*-1.*num_partitions=4"):
            partition_records([("k", 1)], FnPartitioner(lambda k, n: -1), 4)

    def test_partition_past_the_last_reducer_is_a_clear_error(self):
        # Regression: a bare IndexError from deep in the shuffle.
        with pytest.raises(DataFlowError, match=r"'k'.*\b4\b.*num_partitions=4"):
            partition_records([("k", 1)], FnPartitioner(lambda k, n: n), 4)

    @pytest.mark.parametrize("bad", [None, "1", 1.0])
    def test_non_int_partition_is_a_clear_error(self, bad):
        # Regression: a bare TypeError from the list index.
        with pytest.raises(DataFlowError, match="num_partitions=4"):
            partition_records([("k", 1)], FnPartitioner(lambda k, n: bad), 4)

    def test_sizes_land_beside_their_records(self):
        records = [(i, str(i)) for i in range(50)]
        sizes = list(range(100, 150))
        buckets, bucket_sizes = partition_sized(records, sizes, HashPartitioner(), 4)
        assert buckets == partition_records(records, HashPartitioner(), 4)
        for bucket, its_sizes in zip(buckets, bucket_sizes):
            assert its_sizes == [100 + key for key, _ in bucket]


class TestGroupByKey:
    def test_groups_values(self):
        groups = dict(group_by_key([("a", 1), ("b", 2), ("a", 3)]))
        assert groups == {"a": [1, 3], "b": [2]}

    def test_sorted_when_comparable(self):
        groups = group_by_key([("b", 1), ("a", 2), ("c", 3)])
        assert [k for k, _ in groups] == ["a", "b", "c"]

    def test_value_order_preserved_within_group(self):
        groups = dict(group_by_key([("a", 3), ("a", 1), ("a", 2)]))
        assert groups["a"] == [3, 1, 2]

    def test_uncomparable_keys_fall_back_to_first_seen(self):
        records = [(("t", 1), "x"), (5, "y"), (("t", 1), "z")]
        groups = group_by_key(records)
        assert dict(groups) == {("t", 1): ["x", "z"], 5: ["y"]}

    def test_empty(self):
        assert group_by_key([]) == []

    def test_sizes_follow_their_values_through_the_sort(self):
        records = [("b", 1), ("a", 2), ("b", 3), ("c", 4)]
        groups, sizes_of = group_sized(records, [10, 20, 30, 40])
        assert groups == [("a", [2]), ("b", [1, 3]), ("c", [4])]
        assert sizes_of == {"a": [20], "b": [10, 30], "c": [40]}

    def test_half_sorted_order_is_the_same_with_and_without_sizes(self):
        # list.sort leaves a half-sorted list behind on TypeError, and a
        # reduce task's time depends on group order: the sized grouping
        # must land in the very order the grouping it replaced did.
        def grouped_as_before_sizes(records):
            grouped = {}
            for key, value in records:
                grouped.setdefault(key, []).append(value)
            items = list(grouped.items())
            try:
                items.sort(key=lambda kv: kv[0])
            except TypeError:
                pass
            return items

        keys = [5, 3, 9, 1, 7, None, 2, 8, "x", 0, 6, 4] * 3
        records = [(key, i) for i, key in enumerate(keys)]
        groups, sizes_of = group_sized(records, range(len(records)))
        expected = grouped_as_before_sizes(records)
        assert groups == expected and group_by_key(records) == expected
        assert [key for key, _ in expected] != list(dict.fromkeys(keys))  # half-sorted
        for key, values in groups:
            assert sizes_of[key] == values  # each value is its own index here


class TestBucketBytes:
    def test_zero_for_empty(self):
        assert bucket_bytes([]) == 0

    def test_counts_pairs(self):
        assert bucket_bytes([("ab", 1)]) == 2 + 8
