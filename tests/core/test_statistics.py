"""Unit tests for FM sketches, task samples, and the catalog."""

import math

import pytest

from repro.core.statistics import (
    FMSketch,
    IndexSample,
    IndexStats,
    OperatorStats,
    OperatorStatsAccumulator,
    StatisticsCatalog,
    TaskSample,
)


class TestFMSketch:
    def test_empty_estimate_small(self):
        assert FMSketch().estimate() < 100

    @pytest.mark.parametrize("n", [100, 1000, 10000])
    def test_estimate_within_factor_two(self, n):
        fm = FMSketch()
        for i in range(n):
            fm.add(f"key-{i}")
        est = fm.estimate()
        assert n / 2 <= est <= n * 2, f"n={n} est={est}"

    def test_duplicates_do_not_inflate(self):
        fm = FMSketch()
        for _ in range(50):
            for i in range(200):
                fm.add(i)
        assert fm.estimate() <= 400

    def test_zero_key_terminates(self):
        """Regression: integer key 0 used to hang the sketch."""
        fm = FMSketch()
        fm.add(0)
        assert fm.estimate() >= 0

    def test_merge_equals_union(self):
        a, b, union = FMSketch(), FMSketch(), FMSketch()
        for i in range(500):
            a.add(i)
            union.add(i)
        for i in range(400, 900):
            b.add(i)
            union.add(i)
        a.merge(b)
        assert a.bitmaps == union.bitmaps

    def test_merge_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FMSketch(64).merge(FMSketch(32))

    def test_copy_independent(self):
        a = FMSketch()
        a.add("x")
        b = a.copy()
        b.add("y")
        assert a.bitmaps != b.bitmaps


def make_sample(task, n1=100, keys=100, lookups=100, siv=6400.0, probes=0, misses=0):
    index = IndexSample(
        nik=keys, sik_bytes=keys * 8.0, lookups=lookups, siv_bytes=siv,
        tj_total=lookups * 1e-3, tj_samples=lookups,
        cache_probes=probes, cache_misses=misses,
    )
    s = TaskSample(task_id=task, index=[index])
    s.n1 = n1
    s.s1_bytes = n1 * 50.0
    s.spre_bytes = n1 * 60.0
    s.sidx_bytes = n1 * 120.0
    s.spost_bytes = n1 * 40.0
    return s


class TestAccumulator:
    def test_sample_for_get_or_create(self):
        acc = OperatorStatsAccumulator("op", 1, 4)
        a = acc.sample_for("t1")
        assert acc.sample_for("t1") is a

    def test_empty_samples_filtered(self):
        acc = OperatorStatsAccumulator("op", 1, 4)
        acc.sample_for("t1")  # untouched sample
        assert acc.num_samples == 0

    def test_aggregate_averages(self):
        acc = OperatorStatsAccumulator("op", 1, 4)
        acc.add_sample(make_sample("t1"))
        acc.add_sample(make_sample("t2"))
        stats = acc.aggregate()
        assert stats.n1 == pytest.approx(200 / 4)
        assert stats.s1 == pytest.approx(50.0)
        assert stats.spre == pytest.approx(60.0)
        assert stats.index(0).nik == pytest.approx(1.0)
        assert stats.index(0).sik == pytest.approx(8.0)
        assert stats.index(0).tj == pytest.approx(1e-3)

    def test_siv_divided_by_lookups_not_keys(self):
        acc = OperatorStatsAccumulator("op", 1, 4)
        # 100 keys requested but only 10 looked up (deduplicated run).
        acc.add_sample(make_sample("t1", lookups=10, siv=640.0))
        acc.add_sample(make_sample("t2", lookups=10, siv=640.0))
        assert acc.aggregate().index(0).siv == pytest.approx(64.0)

    def test_miss_ratio_from_probes(self):
        acc = OperatorStatsAccumulator("op", 1, 4)
        acc.add_sample(make_sample("t1", probes=100, misses=25))
        acc.add_sample(make_sample("t2", probes=100, misses=35))
        assert acc.aggregate().index(0).miss_ratio == pytest.approx(0.3)

    def test_theta_from_fm(self):
        acc = OperatorStatsAccumulator("op", 1, 1)
        # 1000 keys drawn from 100 distinct -> theta ~ 10
        for rep in range(10):
            for k in range(100):
                acc.add_key_to_sketch(0, k)
        acc.add_sample(make_sample("t1", n1=1000, keys=1000))
        theta = acc.aggregate().index(0).theta
        assert 4 <= theta <= 25

    def test_smap_recorded(self):
        acc = OperatorStatsAccumulator("op", 1, 4)
        acc.record_map_output(100, 5000.0)
        acc.add_sample(make_sample("t1"))
        assert acc.aggregate().smap == pytest.approx(50.0)

    def test_empty_aggregate_defaults(self):
        stats = OperatorStatsAccumulator("op", 1, 4).aggregate()
        assert stats.n1 == 0.0


class TestVarianceGate:
    def test_infinite_with_one_sample(self):
        acc = OperatorStatsAccumulator("op", 1, 4)
        acc.add_sample(make_sample("t1"))
        assert math.isinf(acc.relative_deviation())

    def test_zero_for_identical_samples(self):
        acc = OperatorStatsAccumulator("op", 1, 4)
        for t in ("a", "b", "c"):
            acc.add_sample(make_sample(t))
        assert acc.relative_deviation() == pytest.approx(0.0)

    def test_large_for_skewed_samples(self):
        acc = OperatorStatsAccumulator("op", 1, 4)
        acc.add_sample(make_sample("a", n1=10))
        acc.add_sample(make_sample("b", n1=1000))
        assert acc.relative_deviation() > 0.5


class TestCapacityBoundedMissRatio:
    def test_bound_applies_when_distinct_fits(self):
        idx = IndexStats(nik=1.0, miss_ratio=0.9, distinct=100.0)
        assert idx.capacity_bounded_miss_ratio(1000, 1024) == pytest.approx(0.1)

    def test_no_bound_when_distinct_exceeds_capacity(self):
        idx = IndexStats(nik=1.0, miss_ratio=0.9, distinct=5000.0)
        assert idx.capacity_bounded_miss_ratio(1000, 1024) == 0.9

    def test_never_increases(self):
        idx = IndexStats(nik=1.0, miss_ratio=0.05, distinct=100.0)
        assert idx.capacity_bounded_miss_ratio(200, 1024) == 0.05


class TestCatalog:
    def test_put_get(self):
        cat = StatisticsCatalog()
        stats = OperatorStats(n1=10)
        cat.put("sig", stats)
        assert cat.get("sig") is stats
        assert "sig" in cat and len(cat) == 1

    def test_missing_is_none(self):
        assert StatisticsCatalog().get("nope") is None

    def test_merge_preserves_measured_miss_ratio(self):
        cat = StatisticsCatalog()
        first = OperatorStats()
        first.per_index[0] = IndexStats(miss_ratio=0.2, probes_observed=1000)
        cat.put("sig", first)
        # A deduplicated run observed no probes: must not clobber R.
        second = OperatorStats()
        second.per_index[0] = IndexStats(miss_ratio=1.0, probes_observed=0)
        cat.put("sig", second)
        assert cat.get("sig").index(0).miss_ratio == pytest.approx(0.2)

    def test_merge_preserves_measured_siv_and_tj(self):
        cat = StatisticsCatalog()
        first = OperatorStats()
        first.per_index[0] = IndexStats(siv=512.0, tj=3e-3, lookups_observed=100)
        cat.put("sig", first)
        second = OperatorStats()
        second.per_index[0] = IndexStats(lookups_observed=0)
        cat.put("sig", second)
        got = cat.get("sig").index(0)
        assert got.siv == pytest.approx(512.0)
        assert got.tj == pytest.approx(3e-3)

    def test_clear(self):
        cat = StatisticsCatalog()
        cat.put("a", OperatorStats())
        cat.clear()
        assert len(cat) == 0
