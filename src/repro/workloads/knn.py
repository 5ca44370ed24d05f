"""EFind-based k-nearest-neighbour join (Section 5.4).

"Our EFind implementation performs an index nested-loop join between
the two sets of locations": set A is the main MapReduce input; set B is
indexed as a grid of R*-trees (4x8 cells with small overlapping
regions, each tree replicated to 3 machines). The index exposes its
grid partition scheme, so EFind's index-locality strategy applies --
and is the optimal plan in the paper's Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.sizing import sizeof
from repro.core.accessor import IndexAccessor
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.indices.rstar import GridRStarForest
from repro.mapreduce.api import IdentityMapper
from repro.simcluster.cluster import Cluster

Point = Tuple[float, float]


@dataclass(frozen=True)
class KnnConfig:
    k: int = 10
    grid_x: int = 4
    grid_y: int = 8
    overlap: float = 0.08
    replication: int = 3


def build_spatial_index(
    cluster: Cluster,
    b_points: List[Tuple[Point, int]],
    cfg: KnnConfig,
    service_time: float = 1.5e-3,
) -> GridRStarForest:
    """Index set B for k-NN search (one R*-tree per grid cell)."""
    return GridRStarForest(
        "osm-knn-index",
        cluster,
        b_points,
        k=cfg.k,
        grid_x=cfg.grid_x,
        grid_y=cfg.grid_y,
        overlap=cfg.overlap,
        replication=cfg.replication,
    )


class KnnJoinOperator(IndexOperator):
    """Look up each A point's k nearest B neighbours."""

    def pre_process(self, key, value, index_input):
        index_input.put(0, value)  # the (x, y) point is the lookup key
        return key, value

    def post_process(self, key, value, index_output, collector):
        # The neighbours are the forest's result as it made it, so the
        # forest sizes them.
        neighbours = tuple(index_output.get(0).get_all())
        collector.collect(
            key, neighbours, sizeof(key) + self.accessors[0].result_bytes(neighbours)
        )


class IdentityKnnMapper(IdentityMapper):
    pass


def make_knnj_job(
    name: str,
    a_path: str,
    output_path: str,
    index: GridRStarForest,
) -> IndexJobConf:
    """The kNN join as a map-only EFind job (one output record per A
    point: its id and its k neighbours' ids)."""
    job = IndexJobConf(name)
    job.set_input_paths(a_path)
    job.set_output_path(output_path)
    job.add_head_index_operator(
        KnnJoinOperator("knn-join").add_index(IndexAccessor(index))
    )
    job.set_mapper(IdentityKnnMapper())
    return job


def reference_knnj(
    a_points: List[Tuple[Point, int]],
    index: GridRStarForest,
) -> Dict[int, tuple]:
    """Expected output: directly query the index per A point."""
    out: Dict[int, tuple] = {}
    for point, rid in a_points:
        out[rid] = tuple(p for _d, p in index.knn_with_distances(point))
    return out


def exact_knn(
    query: Point, b_points: List[Tuple[Point, int]], k: int
) -> List[int]:
    """Brute-force exact kNN (ground truth for quality measurement)."""
    scored = sorted(
        b_points,
        key=lambda pr: (pr[0][0] - query[0]) ** 2 + (pr[0][1] - query[1]) ** 2,
    )
    return [rid for _p, rid in scored[:k]]
