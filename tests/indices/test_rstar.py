"""Unit tests for the R*-tree and the grid forest."""

import math
import random

import pytest

from repro.common.errors import IndexLookupError
from repro.common.sizing import sizeof, sizeof_pair
from repro.core.costmodel import Strategy
from repro.core.runner import EFindRunner
from repro.indices.rstar import GridRStarForest, Rect, RStarTree, _Entry, _GridScheme, _mbr_of
from repro.mapreduce.api import OutputCollector
from repro.workloads import osm
from repro.workloads.knn import exact_knn, make_knnj_job


def random_points(n, seed=0, lo=0.0, hi=1.0):
    rng = random.Random(seed)
    return [((rng.uniform(lo, hi), rng.uniform(lo, hi)), i) for i in range(n)]


def brute_knn(points, q, k):
    return [
        pid
        for _p, pid in sorted(
            points, key=lambda pr: (pr[0][0] - q[0]) ** 2 + (pr[0][1] - q[1]) ** 2
        )[:k]
    ]


class TestRect:
    def test_area_and_margin(self):
        r = Rect(0, 0, 2, 3)
        assert r.area() == 6
        assert r.margin() == 10

    def test_union(self):
        u = Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3))
        assert (u.xmin, u.ymin, u.xmax, u.ymax) == (0, 0, 3, 3)

    def test_enlargement(self):
        assert Rect(0, 0, 1, 1).enlargement(Rect(0, 0, 2, 1)) == 1.0

    def test_intersects(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 3, 3))
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))

    def test_overlap_area(self):
        assert Rect(0, 0, 2, 2).overlap_area(Rect(1, 1, 3, 3)) == 1.0
        assert Rect(0, 0, 1, 1).overlap_area(Rect(5, 5, 6, 6)) == 0.0

    def test_min_dist2(self):
        r = Rect(0, 0, 1, 1)
        assert r.min_dist2((0.5, 0.5)) == 0.0
        assert r.min_dist2((2.0, 0.5)) == pytest.approx(1.0)
        assert r.min_dist2((2.0, 2.0)) == pytest.approx(2.0)

    def test_contains_point(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point((0.0, 1.0))
        assert not r.contains_point((1.1, 0.5))

    def test_mbr_is_the_union_fold_signed_zeros_included(self):
        """One ``min``/``max`` per coordinate keeps the first of equal
        values, as a pairwise ``union`` fold does: ``-0.0 == 0.0``, so
        which zero a bounding rectangle holds depends on entry order."""
        rng = random.Random(5)
        coords = (0.0, -0.0, 1.0, -1.0, 2.5)
        for _ in range(2000):
            entries = [
                _Entry(Rect(*(rng.choice(coords) for _ in range(4))))
                for _ in range(rng.randint(1, 6))
            ]
            fold = entries[0].rect
            for e in entries[1:]:
                fold = fold.union(e.rect)
            mbr = _mbr_of(entries)
            assert mbr == fold
            assert [math.copysign(1.0, c) for c in (mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax)] == [
                math.copysign(1.0, c) for c in (fold.xmin, fold.ymin, fold.xmax, fold.ymax)
            ]


class TestRStarTreeStructure:
    def test_rejects_small_fanout(self):
        with pytest.raises(ValueError):
            RStarTree(max_entries=3)

    def test_len(self):
        t = RStarTree(max_entries=4)
        for p, pid in random_points(50):
            t.insert(p, pid)
        assert len(t) == 50

    @pytest.mark.parametrize("n", [1, 5, 60, 500])
    def test_invariants(self, n):
        t = RStarTree(max_entries=6)
        for p, pid in random_points(n, seed=n):
            t.insert(p, pid)
        t.check_invariants()

    def test_duplicate_points_allowed(self):
        t = RStarTree(max_entries=4)
        for i in range(30):
            t.insert((0.5, 0.5), i)
        t.check_invariants()
        assert len(t.knn((0.5, 0.5), 30)) == 30


class TestKnn:
    def test_empty_tree(self):
        assert RStarTree().knn((0, 0), 5) == []

    def test_k_zero(self):
        t = RStarTree()
        t.insert((0, 0), 1)
        assert t.knn((0, 0), 0) == []

    def test_k_larger_than_size(self):
        t = RStarTree()
        t.insert((0, 0), 1)
        assert [pid for _d, pid in t.knn((0, 0), 10)] == [1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force(self, seed):
        points = random_points(400, seed=seed)
        t = RStarTree(max_entries=8)
        for p, pid in points:
            t.insert(p, pid)
        for q in [(0.5, 0.5), (0.0, 0.0), (0.9, 0.1)]:
            assert [pid for _d, pid in t.knn(q, 10)] == brute_knn(points, q, 10)

    def test_distances_sorted_and_correct(self):
        points = random_points(100, seed=9)
        t = RStarTree(max_entries=8)
        for p, pid in points:
            t.insert(p, pid)
        q = (0.3, 0.7)
        result = t.knn(q, 15)
        dists = [d for d, _ in result]
        assert dists == sorted(dists)
        by_id = dict((pid, p) for p, pid in points)
        for d, pid in result:
            p = by_id[pid]
            assert d == pytest.approx(math.dist(p, q))


    @pytest.mark.parametrize("bulk", [True, False])
    def test_distances_equal_exact_knn(self, bulk):
        """Against ground truth that never touches the tree
        (``knn.reference_knnj`` queries the index under test): the k
        distances are those of the brute-force k nearest."""
        points = random_points(700, seed=4)
        if bulk:
            tree = RStarTree.bulk_load(points, max_entries=8)
        else:
            tree = RStarTree(max_entries=8)
            for p, pid in points:
                tree.insert(p, pid)
        by_id = {pid: p for p, pid in points}

        def distance(pid, q):
            dx, dy = by_id[pid][0] - q[0], by_id[pid][1] - q[1]
            return math.sqrt(dx * dx + dy * dy)

        rng = random.Random(6)
        queries = [(rng.random(), rng.random()) for _ in range(40)]
        for q in queries + [(-3.0, 0.5), points[17][0]]:
            want = [(distance(pid, q), pid) for pid in exact_knn(q, points, 10)]
            assert tree.knn(q, 10) == want


class TestRangeSearch:
    def test_finds_all_inside(self):
        points = random_points(300, seed=4)
        t = RStarTree(max_entries=8)
        for p, pid in points:
            t.insert(p, pid)
        box = Rect(0.2, 0.2, 0.6, 0.6)
        expected = {pid for p, pid in points if box.contains_point(p)}
        assert set(t.range_search(box)) == expected

    def test_empty_region(self):
        t = RStarTree()
        t.insert((0.1, 0.1), 1)
        assert t.range_search(Rect(5, 5, 6, 6)) == []


class TestGridRStarForest:
    @pytest.fixture
    def forest(self, cluster):
        self.points = random_points(600, seed=11)
        return GridRStarForest(
            "grid", cluster, self.points, k=5, grid_x=3, grid_y=3, overlap=0.2
        )

    def test_lookup_returns_k(self, forest):
        assert len(forest.lookup((0.5, 0.5))) == 5

    def test_interior_query_exact(self, forest):
        q = (0.5, 0.5)
        assert forest.lookup(q) == brute_knn(self.points, q, 5)

    def test_high_recall_everywhere(self, forest):
        rng = random.Random(5)
        hits = total = 0
        for _ in range(50):
            q = (rng.random(), rng.random())
            exact = set(brute_knn(self.points, q, 5))
            got = set(forest.lookup(q))
            hits += len(exact & got)
            total += 5
        assert hits / total >= 0.9

    def test_partition_scheme_grid(self, forest):
        scheme = forest.partition_scheme
        assert scheme.num_partitions == 9
        assert scheme.partition_of((0.01, 0.01)) == 0

    def test_total_insertions_at_least_points(self, forest):
        # overlap duplicates boundary points into neighbour cells
        assert len(forest) >= 600

    def test_rejects_bad_key(self, forest):
        # A key that is no (x, y) pair gets the same typed error as a
        # non-numeric pair, from the lookup and the partition scheme.
        for key in (5, (1.0,), [1.0, 2.0], "not-a-point", (1.0, 2.0, 3.0)):
            with pytest.raises(IndexLookupError, match="malformed request"):
                forest.lookup(key)
            with pytest.raises(IndexLookupError, match="malformed request"):
                forest.partition_scheme.partition_of(key)
            with pytest.raises(IndexLookupError, match="malformed request"):
                forest.serve(key)

    @pytest.mark.parametrize(
        "key", [(math.nan, 0.5), (0.5, math.inf), (-math.inf, math.nan)]
    )
    def test_rejects_non_finite_key(self, forest, key):
        # Not the bare ValueError/OverflowError of int(nan)/int(inf) in
        # the grid arithmetic, and never k arbitrary payloads.
        with pytest.raises(IndexLookupError, match="malformed request"):
            forest.lookup(key)
        with pytest.raises(IndexLookupError, match="malformed request"):
            forest.partition_scheme.partition_of(key)

    @pytest.mark.parametrize(
        "key", [("a", "b"), (None, 1.0), (0.5, [1.0]), (10**400, 0.5)]
    )
    def test_rejects_non_numeric_key(self, forest, key):
        # The same typed error as a non-finite coordinate, not float()'s
        # bare ValueError / TypeError / OverflowError.
        with pytest.raises(IndexLookupError, match="malformed request"):
            forest.lookup(key)
        with pytest.raises(IndexLookupError, match="malformed request"):
            forest.partition_scheme.partition_of(key)

    @pytest.mark.parametrize("strategy", [Strategy.BASELINE, Strategy.IDXLOC])
    def test_malformed_key_fails_the_job(self, forest, cluster, dfs, strategy):
        # Through lookup (Base) and through partition_of (Idxloc's
        # shuffle): a non-numeric pair, and a key that is no pair.
        for bad in (("a", "b"), 5):
            records = [(pid, point) for point, pid in self.points[:80]]
            records[57] = (57, bad)
            dfs.write("/in/a", records)
            job = make_knnj_job("bad-key", "/in/a", "/out/bad-key", forest)
            with pytest.raises(IndexLookupError, match="malformed request"):
                EFindRunner(cluster, dfs).run(
                    job, mode="forced", forced_strategy=strategy
                )
            assert not dfs.exists("/out/bad-key")

    def test_lookup_is_the_payloads_of_knn_with_distances(self, cluster):
        a = osm.generate_points(osm.OsmConfig(num_points=400, seed=3), "A")
        b = osm.generate_points(osm.OsmConfig(num_points=400, seed=4), "B")
        forest = GridRStarForest("osm", cluster, b, k=10, overlap=0.1)
        for key, _rid in a:
            found = forest.knn_with_distances(key)
            assert forest.lookup(key) == [payload for _d, payload in found]
            assert [d for d, _payload in found] == sorted(d for d, _payload in found)

    def test_rejects_empty(self, cluster):
        with pytest.raises(ValueError):
            GridRStarForest("g", cluster, [], k=5)

    @pytest.mark.parametrize(
        "payload",
        [
            lambda i: i,  # one size: a result's size is a product
            lambda i: f"p{i:04d}",  # one size, not an int
            lambda i: i if i % 7 else f"p{i}",  # sizes differ: walked
            lambda i: True if i == 3 else i,  # True == 1 but sizes 1, not 8
            lambda i: (i, "x" * (i % 3)),
        ],
    )
    def test_result_bytes_is_the_walk(self, cluster, payload):
        points = [(p, payload(i)) for p, i in random_points(300, seed=2)]
        forest = GridRStarForest("g", cluster, points, k=7, grid_x=2, grid_y=2)
        rng = random.Random(9)
        for _ in range(60):
            values = tuple(forest.lookup((rng.random(), rng.random())))
            assert forest.result_bytes(values) == sizeof(values)
        assert forest.result_bytes(()) == sizeof(())

    @pytest.mark.parametrize(
        "strategy",
        [Strategy.BASELINE, Strategy.CACHE, Strategy.REPART, Strategy.IDXLOC],
    )
    def test_knn_join_sizes_are_the_walks(self, cluster, dfs, strategy, monkeypatch):
        # Every size handed to a collector -- filled result slots, the
        # pairs post_process emits -- is the walk of its pair.
        collect, extend = OutputCollector.collect, OutputCollector.extend
        handed = []

        def checked_collect(collector, key, value, nbytes=None):
            if nbytes is not None:
                assert nbytes == sizeof_pair(key, value), (key, value)
                handed.append(nbytes)
            collect(collector, key, value, nbytes)

        def checked_extend(collector, records, sizes):
            assert list(sizes) == [sizeof_pair(k, v) for k, v in records]
            handed.extend(sizes)
            extend(collector, records, sizes)

        monkeypatch.setattr(OutputCollector, "collect", checked_collect)
        monkeypatch.setattr(OutputCollector, "extend", checked_extend)
        forest = GridRStarForest(
            "g", cluster, random_points(300, seed=4), k=5, grid_x=2, grid_y=2
        )
        records = [(pid, point) for point, pid in random_points(120, seed=5)]
        dfs.write("/in/a", records)
        job = make_knnj_job(f"sizes-{strategy.name}", "/in/a", "/out/sizes", forest)
        result = EFindRunner(cluster, dfs).run(
            job, mode="forced", forced_strategy=strategy
        )
        assert handed
        assert sorted(result.output) == sorted(
            (pid, tuple(forest.lookup(point))) for pid, point in records
        )


class TestForestBinning:
    """Binning by band hands each cell's tree exactly the points its
    ``cell_rect(p, overlap)`` contains, in point order."""

    @pytest.mark.parametrize("overlap", [0.0, 0.1, 0.5, 1.5])
    def test_equals_brute_force(self, cluster, monkeypatch, overlap):
        gx, gy = 4, 8
        bounds = Rect(0.0, 0.0, 1.0, 1.0)
        scheme = _GridScheme(bounds, gx, gy, [["h"]] * (gx * gy))
        rects = [scheme.cell_rect(p, overlap) for p in range(gx * gy)]
        # Every band edge inside the bounds and both sides of it; the
        # corners pin the forest's bounds to ``bounds``.
        xs = {v for r in rects for v in (r.xmin, r.xmax)}
        ys = {v for r in rects for v in (r.ymin, r.ymax)}
        xs |= {math.nextafter(x, d) for x in xs for d in (-math.inf, math.inf)}
        ys |= {math.nextafter(y, d) for y in ys for d in (-math.inf, math.inf)}
        xs = sorted(x for x in xs if 0.0 <= x <= 1.0)
        ys = sorted(y for y in ys if 0.0 <= y <= 1.0)
        coords = [(0.0, 0.0), (1.0, 1.0)] + [(x, y) for x in xs for y in ys]
        coords += [p for p, _ in random_points(300, seed=4)]
        points = [(p, i) for i, p in enumerate(coords)]

        loaded = []
        bulk_load = RStarTree.bulk_load.__func__

        def spy(cls, cell_points, max_entries=16):
            loaded.append(list(cell_points))
            return bulk_load(cls, cell_points, max_entries)

        monkeypatch.setattr(RStarTree, "bulk_load", classmethod(spy))
        GridRStarForest(
            "g", cluster, points, k=3, grid_x=gx, grid_y=gy, overlap=overlap
        )
        assert loaded == [
            [item for item in points if rect.contains_point(item[0])]
            for rect in rects
        ]


class TestGridCells:
    """``cell_of`` with the spans hoisted and the clamp as comparisons
    against the one-line formula it replaced."""

    @staticmethod
    def old_cell_of(b, gx, gy, p):
        fx = (p[0] - b.xmin) / max(b.xmax - b.xmin, 1e-12)
        fy = (p[1] - b.ymin) / max(b.ymax - b.ymin, 1e-12)
        cx = min(gx - 1, max(0, int(fx * gx)))
        cy = min(gy - 1, max(0, int(fy * gy)))
        return cy * gx + cx

    @pytest.mark.parametrize(
        "bounds, gx, gy",
        [
            (Rect(0.0, 0.0, 1.0, 1.0), 4, 8),
            (Rect(-124.7, 24.5, -66.9, 49.4), 4, 8),
            (Rect(0.1, -0.3, 0.7, 0.3), 3, 7),
            (Rect(2.0, 2.0, 2.0, 5.0), 5, 1),  # zero width: the 1e-12 floor
        ],
    )
    def test_equals_the_old_formula(self, bounds, gx, gy):
        scheme = _GridScheme(bounds, gx, gy, [["h"]] * (gx * gy))
        w, h = bounds.xmax - bounds.xmin, bounds.ymax - bounds.ymin
        xs = [bounds.xmin + w * i / gx for i in range(gx + 1)]
        ys = [bounds.ymin + h * j / gy for j in range(gy + 1)]
        # Every cell edge and both sides of it, the bounds' corners, and
        # points outside the bounds.
        xs += [math.nextafter(x, d) for x in xs for d in (-math.inf, math.inf)]
        ys += [math.nextafter(y, d) for y in ys for d in (-math.inf, math.inf)]
        xs += [bounds.xmin - 3 * w - 1, bounds.xmax + 3 * w + 1, -1e150, 1e150]
        ys += [bounds.ymin - 3 * h - 1, bounds.ymax + 3 * h + 1, -1e150, 1e150]
        for x in xs:
            for y in ys:
                want = self.old_cell_of(bounds, gx, gy, (x, y))
                assert scheme.cell_of((x, y)) == want
                assert 0 <= want < scheme.num_partitions
