"""Unit tests for the metrics registry."""

import json

import pytest

from repro.mapreduce.counters import Counters
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
)


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.counter("c").inc(2.5)
        assert r.counter("c").value == 3.5

    def test_counter_rejects_negative(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError):
            r.counter("c").inc(-1)

    def test_gauge_last_writer_wins(self):
        r = MetricsRegistry()
        r.gauge("g").set(5.0)
        r.gauge("g").set(2.0)
        assert r.gauge("g").value == 2.0

    def test_get_or_create_identity(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.histogram("h") is r.histogram("h")
        assert len(r) == 2


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = Histogram("h", buckets=[0.01, 0.1, 1.0])
        for v in (0.005, 0.05, 0.05, 0.5):
            h.observe(v)
        assert h.counts == [1, 2, 1]
        assert h.overflow == 0
        assert h.count == 4

    def test_boundary_value_goes_to_its_bucket(self):
        h = Histogram("h", buckets=[0.01, 0.1])
        h.observe(0.01)  # counts[i] is "value <= buckets[i]"
        assert h.counts == [1, 0]

    def test_overflow_bucket(self):
        h = Histogram("h", buckets=[0.01, 0.1])
        h.observe(5.0)
        assert h.overflow == 1
        assert h.counts == [0, 0]

    def test_mean_and_quantiles(self):
        h = Histogram("h", buckets=[1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.mean == pytest.approx(1.625)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 4.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.mean == 0.0
        assert h.quantile(0.99) == 0.0

    def test_buckets_must_be_sorted(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[1.0, 0.5])
        with pytest.raises(ValueError):
            Histogram("h", buckets=[])

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS_S[0] <= 1e-5
        assert DEFAULT_LATENCY_BUCKETS_S[-1] >= 1.0


class TestQuantileBoundaries:
    """Nearest-rank quantile regressions: exact on bucket boundaries,
    deterministic for n < 2, never answering an empty bucket."""

    def _h(self):
        h = Histogram("h", buckets=[1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        return h  # counts [1, 2, 1]

    def test_rank_on_cumulative_boundary_stays_in_bucket(self):
        h = self._h()
        # rank 1 is the last observation of bucket 1.0; rank 3 the last
        # of bucket 2.0 -- neither may spill into the next bucket.
        assert h.quantile(0.25) == 1.0
        assert h.quantile(0.75) == 2.0
        # one rank past the boundary moves on
        assert h.quantile(0.76) == 4.0

    def test_q_zero_is_first_observation_not_first_bucket(self):
        h = Histogram("h", buckets=[1.0, 2.0, 4.0])
        h.observe(3.0)  # buckets 1.0 and 2.0 stay empty
        assert h.quantile(0.0) == 4.0

    def test_single_sample_deterministic_for_all_q(self):
        h = Histogram("h", buckets=[1.0, 2.0, 4.0])
        h.observe(1.5)
        for q in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0):
            assert h.quantile(q) == 2.0

    def test_two_samples_split_at_median(self):
        h = Histogram("h", buckets=[1.0, 2.0])
        h.observe(0.5)
        h.observe(1.5)
        assert h.quantile(0.5) == 1.0  # rank ceil(1.0) == 1
        assert h.quantile(0.51) == 2.0

    def test_float_noise_on_rank_product_is_absorbed(self):
        h = Histogram("h", buckets=[1.0, 2.0])
        for _ in range(7):
            h.observe(0.5)
        for _ in range(93):
            h.observe(1.5)
        # 0.07 * 100 == 7.000000000000001 in floats; the 7th
        # observation is still in the first bucket.
        assert h.quantile(0.07) == 1.0

    def test_overflow_reports_largest_finite_bound(self):
        h = Histogram("h", buckets=[1.0, 2.0])
        h.observe(10.0)
        assert h.quantile(1.0) == 2.0


class TestAbsorbCounters:
    def test_absorbs_into_prefixed_gauges(self):
        counters = Counters()
        counters.increment("fault", "lookups_retried", 4)
        counters.increment("batch", "batches_issued", 2)
        r = MetricsRegistry()
        r.absorb_counters(counters, prefix="job.q3")
        snap = r.to_dict()["gauges"]
        assert snap["job.q3.fault.lookups_retried"] == 4.0
        assert snap["job.q3.batch.batches_issued"] == 2.0

    def test_reabsorb_overwrites_not_adds(self):
        """Snapshots are levels: absorbing a newer total must replace
        the old value, which is why they are gauges."""
        counters = Counters()
        counters.increment("g", "n", 3)
        r = MetricsRegistry()
        r.absorb_counters(counters)
        counters.increment("g", "n", 2)
        r.absorb_counters(counters)
        assert r.gauge("counters.g.n").value == 5.0


class TestExportBoundaries:
    """The exported histogram names its bucket edges explicitly -- the
    regression pinned here is that live rolling windows and offline
    consumers reprice quantiles from *exactly* the edges the histogram
    observed with, not from assumed defaults."""

    def test_boundaries_include_overflow_marker(self):
        h = Histogram("h", buckets=[0.1, 1.0])
        assert h.boundaries() == [0.1, 1.0, "+Inf"]
        export = h.to_export()
        assert export["boundaries"] == [0.1, 1.0, "+Inf"]
        assert export["buckets"] == [0.1, 1.0]

    def test_boundaries_are_exact_not_approximate(self):
        # Deliberately awkward edges: repr round-trips must be exact.
        edges = [1e-5, 0.1 + 0.2, 1 / 3, 7.000000000000001]
        h = Histogram("h", buckets=sorted(edges))
        exported = json.loads(json.dumps(h.to_export()))
        assert exported["buckets"] == sorted(edges)


class TestToDict:
    def test_histogram_snapshot_shape(self):
        r = MetricsRegistry()
        r.histogram("h", buckets=[0.1, 1.0]).observe(0.05)
        snap = r.to_dict()["histograms"]["h"]
        for key in ("buckets", "boundaries", "counts", "overflow", "count",
                    "sum", "mean", "p50", "p99"):
            assert key in snap
        assert snap["count"] == 1

    def test_json_serializable(self):
        import json

        r = MetricsRegistry()
        r.counter("c").inc()
        r.gauge("g").set(1.5)
        r.histogram("h").observe(0.2)
        json.dumps(r.to_dict(), allow_nan=False)
