"""Unit tests for the IndexOperator interface pieces."""

import pytest

from repro.common.errors import DataFlowError
from repro.core.accessor import IndexAccessor
from repro.core.operator import (
    IndexInput,
    IndexOperator,
    IndexOutput,
    IndexValues,
)
from repro.indices.base import MappingIndex
from repro.mapreduce.api import OutputCollector


class TestIndexInput:
    def test_put_and_keys(self):
        ii = IndexInput(2)
        ii.put(0, "a")
        ii.put(0, "b")
        ii.put(1, "x")
        assert ii.keys(0) == ["a", "b"]
        assert ii.keys(1) == ["x"]

    def test_as_tuple_immutable_form(self):
        ii = IndexInput(2)
        ii.put(1, "x")
        assert ii.as_tuple() == ((), ("x",))

    def test_keys_returns_copy(self):
        ii = IndexInput(1)
        ii.put(0, "a")
        ii.keys(0).append("evil")
        assert ii.keys(0) == ["a"]

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            IndexInput(1).put(5, "a")

    @pytest.mark.parametrize("index_id", [-1, -2, 2, 5])
    def test_ids_outside_range_rejected_by_name(self, index_id):
        """A negative id must not count from the end: ``put(-1, ik)``
        used to file the key under the *last* index."""
        ii = IndexInput(2)
        with pytest.raises(IndexError, match=rf"index id {index_id} .* 2 attached"):
            ii.put(index_id, "a")
        with pytest.raises(IndexError, match=rf"index id {index_id} .* 2 attached"):
            ii.keys(index_id)
        assert ii.as_tuple() == ((), ())


    @pytest.mark.parametrize("ik", [[1, 2], {1: 2}, (1, [2])])
    def test_unhashable_key_refused_by_name(self, ik):
        """Every strategy files keys in dicts and sets: an unhashable one
        is refused where it is put, naming the index and the key."""
        ii = IndexInput(2)
        with pytest.raises(DataFlowError, match=r"key .* for index 1 is unhashable"):
            ii.put(1, ik)
        assert ii.as_tuple() == ((), ())


class TestIndexValues:
    def test_get_all_flattens(self):
        iv = IndexValues(["k1", "k2"], [[1, 2], [3]])
        assert iv.get_all() == [1, 2, 3]

    def test_for_key_positional(self):
        iv = IndexValues(["k1", "k2"], [[1, 2], [3]])
        assert iv.for_key(0) == [1, 2]
        assert iv.for_key(1) == [3]

    def test_keys_copy(self):
        iv = IndexValues(["k"], [[1]])
        iv.keys.append("z")
        assert iv.keys == ["k"]

    def test_len_counts_keys(self):
        assert len(IndexValues(["a", "b"], [[1], []])) == 2

    @pytest.mark.parametrize("position", [-1, -2, 2, 5])
    def test_positions_outside_range_rejected_by_name(self, position):
        """A negative position must not count from the end: ``for_key(-1)``
        used to hand out the last key's values, ``for_key(2)`` to die
        with a bare ``tuple index out of range``."""
        iv = IndexValues((10, 20), (("a",), ("b",)))
        with pytest.raises(IndexError, match=rf"key position {position} .* 2 keys"):
            iv.for_key(position)


class TestIndexOutput:
    def test_get_per_index(self):
        out = IndexOutput((("a",), ("x", "y")), ((((1,),)), ((2,), (3,))))
        assert out.get(0).get_all() == [1]
        assert out.get(1).get_all() == [2, 3]
        assert out.num_indices == 2

    def test_none_value_lists_treated_empty(self):
        out = IndexOutput((("a",),), (None,))
        assert out.get(0).get_all() == []

    @pytest.mark.parametrize("index_id", [-1, 2])
    def test_get_outside_range_rejected_by_name(self, index_id):
        out = IndexOutput((("a",), ("x",)), (((1,),), ((2,),)))
        with pytest.raises(IndexError, match=rf"index id {index_id} .* 2 attached"):
            out.get(index_id)

    def test_views_share_the_carrier_tuples_and_hand_out_copies(self):
        """No per-record copy of what is already immutable, and nothing
        a caller does to what it is handed reaches the carrier."""
        ikl, ivl = (("a", "b"),), (((1, 2), (3,)),)
        values = IndexOutput(ikl, ivl).get(0)
        assert values._keys is ikl[0] and values._value_lists is ivl[0]
        values.get_all().append("evil")
        values.for_key(0).append("evil")
        values.keys.append("evil")
        assert (values.get_all(), values.for_key(0)) == ([1, 2, 3], [1, 2])
        assert values.keys == ["a", "b"] and len(values) == 2

    def test_non_tuple_arguments_are_snapshotted(self):
        keys, value_lists = ["k"], [[1]]
        values = IndexValues(keys, value_lists)
        keys.append("z")
        value_lists[0].append(2)
        value_lists.append([3])
        assert (values.keys, values.get_all(), len(values)) == (["k"], [1], 1)

    def test_list_carriers_are_snapshotted_and_accessors_hand_out_copies(self):
        """Only tuples are kept as they are: an ``IndexOutput`` over a
        caller's lists does not see them grow, and nothing a caller does
        to what an accessor hands out reaches the view."""
        iklists, ivlists = [["a"], ["x", "y"]], [[[1]], None]
        out = IndexOutput(iklists, ivlists)
        iklists.append(["z"])
        ivlists[1] = [[9], [9]]
        assert out.num_indices == 2
        values = out.get(0)
        assert values.get_all() is not values.get_all()
        for handed_out in (values.get_all(), values.for_key(0), values.keys):
            handed_out.append("evil")
        assert (values.get_all(), values.for_key(0), values.keys) == ([1], [1], ["a"])
        assert out.get(1).get_all() == [] and out.get(1).keys == ["x", "y"]


class TestIndexOperatorDefaults:
    @pytest.fixture
    def op(self):
        index = MappingIndex("m", {1: "one", 2: "two"})
        return IndexOperator("default").add_index(IndexAccessor(index))

    def test_add_index_chains(self, op):
        assert op.num_indices == 1

    def test_default_pre_uses_record_key(self, op):
        ii = IndexInput(1)
        key, value = op.pre_process(1, "payload", ii)
        assert (key, value) == (1, "payload")
        assert ii.keys(0) == [1]

    def test_default_post_emits_results(self, op):
        collector = OutputCollector()
        out = IndexOutput(((1,),), ((("one",),),))
        op.post_process(1, "payload", out, collector)
        assert collector.records == [(1, ("payload", ("one",)))]

    def test_signature_includes_index_names(self, op):
        assert "m" in op.signature()
        assert "IndexOperator" in op.signature()

    def test_signatures_distinguish_indices(self):
        a = IndexOperator().add_index(IndexAccessor(MappingIndex("a", {})))
        b = IndexOperator().add_index(IndexAccessor(MappingIndex("b", {})))
        assert a.signature() != b.signature()


class TestIndexAccessor:
    def test_lookup_delegates(self):
        acc = IndexAccessor(MappingIndex("m", {1: [10, 11]}))
        assert acc.lookup(1) == [10, 11]

    def test_exposes_partitions_flag(self, cluster):
        from repro.indices.kvstore import DistributedKVStore

        kv = DistributedKVStore("kv", cluster)

        class Hidden(IndexAccessor):
            exposes_partitions = False

        assert IndexAccessor(kv).supports_locality
        assert not Hidden(kv).supports_locality
        assert Hidden(kv).partition_scheme is None
        assert Hidden(kv).hosts_for_key("a") == []

    def test_service_time_forwarded(self):
        idx = MappingIndex("m", {}, service_time=7e-3)
        assert IndexAccessor(idx).service_time() == pytest.approx(7e-3)
