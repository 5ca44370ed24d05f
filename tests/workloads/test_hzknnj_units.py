"""Unit tests for H-zkNNJ internals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.api import OutputCollector
from repro.workloads import hzknnj
from repro.workloads.osm import US_BOUNDS


class TestRangePartition:
    def test_routing(self):
        bounds = [10, 20, 30]
        assert hzknnj._range_partition(5, bounds) == 0
        assert hzknnj._range_partition(10, bounds) == 0
        assert hzknnj._range_partition(15, bounds) == 1
        assert hzknnj._range_partition(35, bounds) == 3

    def test_empty_bounds_single_partition(self):
        assert hzknnj._range_partition(123, []) == 0

    @given(st.integers(0, 1 << 32), st.lists(st.integers(0, 1 << 32), max_size=10))
    @settings(max_examples=50)
    def test_partition_consistent_with_sorted_bounds(self, z, raw):
        bounds = sorted(raw)
        p = hzknnj._range_partition(z, bounds)
        assert 0 <= p <= len(bounds)
        if p > 0:
            assert bounds[p - 1] < z
        if p < len(bounds):
            assert z <= bounds[p]


class TestQuantileBoundaries:
    def test_even_split(self):
        samples = [(0, z) for z in range(1000)]
        bounds = hzknnj._quantile_boundaries(samples, 1, 4)
        assert len(bounds) == 1
        assert len(bounds[0]) == 3
        assert bounds[0] == sorted(bounds[0])
        # roughly the quartiles
        assert 200 < bounds[0][0] < 300
        assert 450 < bounds[0][1] < 550

    def test_per_shift_separation(self):
        samples = [(0, z) for z in range(100)] + [(1, z * 10) for z in range(100)]
        bounds = hzknnj._quantile_boundaries(samples, 2, 2)
        assert len(bounds) == 2
        assert bounds[1][0] > bounds[0][0]

    def test_empty_shift(self):
        bounds = hzknnj._quantile_boundaries([], 2, 4)
        assert bounds == [[], []]


class TestCandidateScan:
    def test_window_is_k_b_rows_each_side(self):
        # B rows at z 1, 4, 9, 12; the A row at z 5 sorts after two of
        # them, so with k=1 its window is the B rows at z 4 and 9.
        rows = [(z, "B", f"b{z}", (float(z), 0.0)) for z in (1, 4, 9, 12)]
        rows.append((5, "A", "a", (5.0, 0.0)))
        collector = OutputCollector()
        hzknnj._CandidateReducer(k=1).reduce((0, 0), rows, collector, None)
        assert collector.records == [("a", ((1.0, "b4"), (4.0, "b9")))]
        collector = OutputCollector()
        hzknnj._CandidateReducer(k=3).reduce((0, 0), rows, collector, None)
        assert [b for _d, b in collector.records[0][1]] == ["b1", "b4", "b9", "b12"]


class TestZValueProperties:
    floats_x = st.floats(min_value=US_BOUNDS[0], max_value=US_BOUNDS[2])
    floats_y = st.floats(min_value=US_BOUNDS[1], max_value=US_BOUNDS[3])

    @given(floats_x, floats_y)
    @settings(max_examples=100)
    def test_z_in_range(self, x, y):
        z = hzknnj.zvalue((x, y))
        assert 0 <= z < (1 << 32)

    @given(floats_x, floats_y)
    @settings(max_examples=50)
    def test_out_of_bounds_clamped(self, x, y):
        inside = hzknnj.zvalue((x, y))
        assert hzknnj.zvalue((x - 1000, y - 1000)) == hzknnj.zvalue(
            (US_BOUNDS[0], US_BOUNDS[1])
        )
        assert inside >= 0

    def test_monotone_along_axes_coarse(self):
        # moving strictly within one grid cell axis keeps order on the
        # interleaved bits at the coarse level
        z_sw = hzknnj.zvalue((US_BOUNDS[0], US_BOUNDS[1]))
        z_ne = hzknnj.zvalue((US_BOUNDS[2], US_BOUNDS[3]))
        assert z_sw == 0
        assert z_ne == (1 << 32) - 1


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = hzknnj.HzknnjConfig()
        assert cfg.alpha == 2
        assert cfg.epsilon == pytest.approx(0.003)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"alpha": 0}, "alpha"),  # used to run one shift as if alpha=1
            ({"alpha": -3}, "alpha"),
            ({"k": -2}, "k"),  # used to answer no neighbours
            ({"num_partitions": 0}, "num_partitions"),  # failed in the job
        ],
    )
    def test_rejects_what_it_cannot_run(self, kwargs, field):
        with pytest.raises(ValueError, match=f"needs {field} >="):
            hzknnj.HzknnjConfig(**kwargs)
