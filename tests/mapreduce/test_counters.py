"""Unit tests for counters."""

from repro.mapreduce.counters import Counters


class TestIncrement:
    def test_starts_at_zero(self):
        c = Counters()
        assert c.get("g", "n") == 0.0

    def test_increment_default_one(self):
        c = Counters()
        c.increment("g", "n")
        c.increment("g", "n")
        assert c.get("g", "n") == 2.0

    def test_increment_amount(self):
        c = Counters()
        c.increment("g", "bytes", 100)
        c.increment("g", "bytes", 50)
        assert c.get("g", "bytes") == 150.0

    def test_set_overwrites(self):
        c = Counters()
        c.increment("g", "n", 5)
        c.set("g", "n", 2)
        assert c.get("g", "n") == 2.0

    def test_groups_isolated(self):
        c = Counters()
        c.increment("a", "n")
        c.increment("b", "n", 3)
        assert c.get("a", "n") == 1.0
        assert c.get("b", "n") == 3.0


class TestMerge:
    def test_merge_adds(self):
        a, b = Counters(), Counters()
        a.increment("g", "n", 1)
        b.increment("g", "n", 2)
        b.increment("g", "m", 5)
        a.merge(b)
        assert a.get("g", "n") == 3.0
        assert a.get("g", "m") == 5.0

    def test_merge_leaves_source_unchanged(self):
        a, b = Counters(), Counters()
        b.increment("g", "n", 2)
        a.merge(b)
        assert b.get("g", "n") == 2.0

    def test_copy_is_independent(self):
        a = Counters()
        a.increment("g", "n")
        b = a.copy()
        b.increment("g", "n")
        assert a.get("g", "n") == 1.0
        assert b.get("g", "n") == 2.0


class TestGaugeMerge:
    def test_merge_overwrites_set_keys(self):
        # Regression: a key written with set() used to be *added* on
        # merge, silently doubling gauges folded into global totals.
        a, b = Counters(), Counters()
        a.set("g", "hwm", 5)
        b.set("g", "hwm", 7)
        a.merge(b)
        assert a.get("g", "hwm") == 7.0

    def test_merge_gauge_into_empty(self):
        a, b = Counters(), Counters()
        b.set("g", "hwm", 3)
        a.merge(b)
        assert a.get("g", "hwm") == 3.0
        assert a.is_gauge("g", "hwm")

    def test_merge_still_adds_incremented_keys(self):
        a, b = Counters(), Counters()
        a.increment("g", "n", 1)
        b.increment("g", "n", 2)
        a.merge(b)
        assert a.get("g", "n") == 3.0
        assert not a.is_gauge("g", "n")

    def test_increment_clears_gauge(self):
        c = Counters()
        c.set("g", "n", 5)
        c.increment("g", "n", 1)
        assert c.get("g", "n") == 6.0
        assert not c.is_gauge("g", "n")

    def test_set_then_increment_then_merge_is_additive(self):
        """An increment turns a gauge back into an additive counter --
        also in a set that holds other gauges, and in one whose only
        gauge it was -- so a merge sums it."""
        for other_gauge in (False, True):
            a, b = Counters(), Counters()
            a.increment("g", "n", 1)
            b.set("g", "n", 5)
            if other_gauge:
                b.set("g", "hwm", 7)
            b.increment("g", "n", 2)
            a.merge(b)
            assert a.get("g", "n") == 8.0 and not a.is_gauge("g", "n")
            assert a.is_gauge("g", "hwm") == other_gauge

    def test_copy_preserves_gauge_values(self):
        a = Counters()
        a.set("g", "hwm", 4)
        a.increment("g", "n", 2)
        b = a.copy()
        assert b.get("g", "hwm") == 4.0
        assert b.get("g", "n") == 2.0
        assert b.is_gauge("g", "hwm")

    def test_chained_merge_of_gauges(self):
        total = Counters()
        for value in (1.0, 9.0, 4.0):
            task = Counters()
            task.set("mem", "peak", value)
            total.merge(task)
        assert total.get("mem", "peak") == 4.0  # last writer, not 14

    def test_to_dict_snapshot_is_deep(self):
        c = Counters()
        c.increment("g", "n")
        snap = c.to_dict()
        snap["g"]["n"] = 99
        assert c.get("g", "n") == 1.0


class TestIntrospection:
    def test_items_iterates_all(self):
        c = Counters()
        c.increment("a", "x", 1)
        c.increment("b", "y", 2)
        assert sorted(c.items()) == [("a", "x", 1.0), ("b", "y", 2.0)]

    def test_len(self):
        c = Counters()
        c.increment("a", "x")
        c.increment("a", "y")
        c.increment("b", "x")
        assert len(c) == 3

    def test_group_view_is_copy(self):
        c = Counters()
        c.increment("g", "n")
        view = c.group("g")
        view["n"] = 99
        assert c.get("g", "n") == 1.0
