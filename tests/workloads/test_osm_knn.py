"""Tests for the OSM generator, EFind kNN join, and H-zkNNJ baseline."""

import random

import pytest

from repro.core.costmodel import Strategy
from repro.core.runner import EFindRunner
from repro.workloads import hzknnj, knn, osm


@pytest.fixture(scope="module")
def points():
    a = osm.generate_points(osm.OsmConfig(num_points=1500, seed=5), "A")
    b = osm.generate_points(osm.OsmConfig(num_points=1500, seed=6), "B")
    return a, b


class TestOsmGenerator:
    def test_counts_and_ids(self, points):
        a, _ = points
        assert len(a) == 1500
        assert [rid for _p, rid in a] == list(range(1500))

    def test_points_in_bounds(self, points):
        xmin, ymin, xmax, ymax = osm.US_BOUNDS
        for (x, y), _rid in points[0]:
            assert xmin <= x <= xmax
            assert ymin <= y <= ymax

    def test_clustered(self, points):
        """Most points concentrate around cluster centres: the spread of
        nearest-neighbour distances is far below uniform."""
        a, _ = points
        rng = random.Random(0)
        sample = rng.sample(a, 60)
        dists = []
        for p, rid in sample:
            best = min(
                (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
                for q, qid in a
                if qid != rid
            )
            dists.append(best**0.5)
        assert sorted(dists)[len(dists) // 2] < 0.5

    def test_different_tags_differ(self):
        a = osm.generate_points(osm.OsmConfig(num_points=100), "A")
        b = osm.generate_points(osm.OsmConfig(num_points=100), "B")
        assert a != b

    def test_write_points_roundtrip(self, paper_dfs, points):
        a, _ = points
        osm.write_points(paper_dfs, "/osm/a", a)
        back = paper_dfs.read("/osm/a")
        assert back[0] == (0, a[0][0])


@pytest.mark.xfail(
    strict=True,
    reason="build_spatial_index drops service_time: asked for 1.5e-3 s, the "
    "forest serves IndexService.DEFAULT_SERVICE_TIME, 0.5e-3 s; passing it on "
    "moves fig13's and knnj-spatial's simulated times, a recalibration",
)
def test_build_spatial_index_passes_service_time(points):
    from repro.simcluster.cluster import Cluster

    cluster = Cluster(num_nodes=4, map_slots_per_node=2)
    index = knn.build_spatial_index(
        cluster, points[1], knn.KnnConfig(k=5), service_time=1.5e-3
    )
    assert index.service_time() == 1.5e-3


class TestEFindKnnJoin:
    @pytest.fixture(scope="class")
    def env(self, points):
        from repro.dfs.filesystem import DistributedFileSystem
        from repro.simcluster.cluster import Cluster

        a, b = points
        cluster = Cluster(num_nodes=12, map_slots_per_node=2)
        dfs = DistributedFileSystem(cluster, block_size=16 * 1024)
        osm.write_points(dfs, "/osm/a", a)
        # Generous overlap: at this (sparse) test scale the k-th
        # neighbour is often far from the query, so the overlap band
        # must be wide for boundary queries to stay exact.
        cfg = knn.KnnConfig(k=5, overlap=0.3)
        index = knn.build_spatial_index(cluster, b, cfg)
        return cluster, dfs, index, cfg

    def test_idxloc_matches_reference(self, env, points):
        cluster, dfs, index, cfg = env
        a, _b = points
        job = knn.make_knnj_job("knn-i", "/osm/a", "/out/knn-i", index)
        res = EFindRunner(cluster, dfs).run(
            job,
            mode="forced",
            forced_strategy=Strategy.IDXLOC,
            extra_job_targets=["head0"],
        )
        assert dict(res.output) == knn.reference_knnj(a, index)

    def test_each_a_point_gets_k_neighbours(self, env, points):
        cluster, dfs, index, cfg = env
        job = knn.make_knnj_job("knn-k", "/osm/a", "/out/knn-k", index)
        res = EFindRunner(cluster, dfs).run(
            job, mode="forced", forced_strategy=Strategy.CACHE
        )
        assert len(res.output) == len(points[0])
        for _rid, neighbours in res.output:
            assert len(neighbours) == cfg.k

    def test_recall_vs_exact(self, env, points):
        cluster, dfs, index, cfg = env
        a, b = points
        rng = random.Random(1)
        sample = rng.sample(a, 60)
        recall = 0.0
        for p, rid in sample:
            exact = set(knn.exact_knn(p, b, cfg.k))
            got = set(index.lookup(p))
            recall += len(exact & got) / cfg.k
        assert recall / len(sample) >= 0.85

    def test_map_only_job(self, env):
        cluster, dfs, index, cfg = env
        job = knn.make_knnj_job("knn-m", "/osm/a", "/out/knn-m", index)
        assert job.reducer is None


class TestZOrder:
    def test_zvalue_deterministic(self):
        p = (-100.0, 40.0)
        assert hzknnj.zvalue(p) == hzknnj.zvalue(p)

    def test_zvalue_range(self):
        assert 0 <= hzknnj.zvalue((-125.0, 24.0))
        assert hzknnj.zvalue((-66.0, 49.0)) < (1 << 32)

    def test_nearby_points_nearby_z(self):
        """Z-order preserves locality on average: a tiny perturbation
        changes z far less than a cross-country move."""
        base = (-100.0, 40.0)
        near = (-100.001, 40.001)
        far = (-70.0, 26.0)
        dz_near = abs(hzknnj.zvalue(base) - hzknnj.zvalue(near))
        dz_far = abs(hzknnj.zvalue(base) - hzknnj.zvalue(far))
        assert dz_near < dz_far

    def test_interleave_bits(self):
        # x=0b11, y=0b00 -> z has x bits at even positions
        assert hzknnj._interleave(0b11, 0b00, 2) == 0b0101
        assert hzknnj._interleave(0b00, 0b11, 2) == 0b1010


class TestHzknnj:
    @pytest.fixture(scope="class")
    def result(self, points):
        from repro.dfs.filesystem import DistributedFileSystem
        from repro.simcluster.cluster import Cluster

        a, b = points
        cluster = Cluster(num_nodes=12, map_slots_per_node=2)
        dfs = DistributedFileSystem(cluster, block_size=16 * 1024)
        osm.write_points(dfs, "/osm/a", a)
        osm.write_points(dfs, "/osm/b", b)
        cfg = hzknnj.HzknnjConfig(k=5, alpha=3, num_partitions=8)
        return hzknnj.run_hzknnj(cluster, dfs, "/osm/a", "/osm/b", cfg), a, b

    def test_every_a_point_answered(self, result):
        res, a, _b = result
        assert set(res.neighbours) == {rid for _p, rid in a}

    def test_k_neighbours_each(self, result):
        res, _a, _b = result
        assert all(len(ns) == 5 for ns in res.neighbours.values())

    def test_recall_reasonable(self, result):
        res, a, b = result
        rng = random.Random(2)
        sample = rng.sample(a, 60)
        recall = 0.0
        for p, rid in sample:
            exact = set(knn.exact_knn(p, b, 5))
            recall += len(exact & set(res.neighbours[rid])) / 5
        assert recall / len(sample) >= 0.6

    def test_three_jobs_run(self, result):
        res, _a, _b = result
        assert len(res.job_results) == 3
        assert res.sim_time > 0

    def test_intermediates_die_with_their_consumer(self):
        from repro.dfs.filesystem import DistributedFileSystem
        from repro.simcluster.cluster import Cluster

        a = osm.generate_points(osm.OsmConfig(num_points=150, seed=3), "A")
        b = osm.generate_points(osm.OsmConfig(num_points=150, seed=4), "B")
        cluster = Cluster(num_nodes=4, map_slots_per_node=2)
        dfs = DistributedFileSystem(cluster, block_size=2048)
        osm.write_points(dfs, "/a", a)
        osm.write_points(dfs, "/b", b)
        cfg = hzknnj.HzknnjConfig(k=4, alpha=2, num_partitions=4)
        res = hzknnj.run_hzknnj(cluster, dfs, "/a", "/b", cfg)
        # Only the declared output is left; the sample and scan jobs'
        # record lists are gone, the merge's is the answer.
        assert dfs.listdir("/_hzknnj") == ["/_hzknnj/result"]
        sample, scan, merge = res.job_results
        assert (sample.output, sample.output_sizes) == ([], [])
        assert (scan.output, scan.output_sizes) == ([], [])
        assert len(merge.output) == len(a) == len(res.neighbours)
        assert dfs.listdir() == ["/_hzknnj/result", "/a", "/b"]

    def test_more_shifts_improve_recall(self, points):
        from repro.dfs.filesystem import DistributedFileSystem
        from repro.simcluster.cluster import Cluster

        a, b = points
        cluster = Cluster(num_nodes=12, map_slots_per_node=2)
        dfs = DistributedFileSystem(cluster, block_size=16 * 1024)
        osm.write_points(dfs, "/osm/a", a)
        osm.write_points(dfs, "/osm/b", b)
        rng = random.Random(3)
        sample = rng.sample(a, 40)

        def recall_for(alpha):
            res = hzknnj.run_hzknnj(
                cluster, dfs, "/osm/a", "/osm/b",
                hzknnj.HzknnjConfig(k=5, alpha=alpha, num_partitions=8),
            )
            total = 0.0
            for p, rid in sample:
                exact = set(knn.exact_knn(p, b, 5))
                total += len(exact & set(res.neighbours[rid])) / 5
            return total / len(sample)

        assert recall_for(3) >= recall_for(1) - 0.05
