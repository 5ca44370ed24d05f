"""OSM workload: OpenStreetMap-shaped 2-D location records.

The paper's OSM data set is 42M geographic points over the US. The
stand-in generator draws points from a mixture of Gaussian clusters
(population centres) plus a uniform background, inside a US-like
bounding box -- the spatial clustering is what the kNN join's grid
partitioning and R*-tree behaviour depend on, not the actual roads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.common.rng import make_rng, randbelow
from repro.dfs.filesystem import DistributedFileSystem

Point = Tuple[float, float]

#: Continental-US-like bounding box (lon_min, lat_min, lon_max, lat_max).
US_BOUNDS = (-125.0, 24.0, -66.0, 49.0)


@dataclass(frozen=True)
class OsmConfig:
    num_points: int = 8_000
    num_clusters: int = 24
    cluster_fraction: float = 0.8
    cluster_stddev: float = 1.2
    seed: int = 77


def generate_points(cfg: OsmConfig, tag: str = "") -> List[Tuple[Point, int]]:
    """Generate ``(point, record_id)`` pairs."""
    rng = make_rng(cfg.seed, "osm", tag)
    below, random, gauss = randbelow(rng), rng.random, rng.gauss
    xmin, ymin, xmax, ymax = US_BOUNDS
    # rng.uniform(a, b) is a + (b - a) * rng.random(), without the call
    xspan, yspan = xmax - xmin, ymax - ymin
    centers = [
        (xmin + xspan * random(), ymin + yspan * random())
        for _ in range(cfg.num_clusters)
    ]
    points: List[Tuple[Point, int]] = []
    for i in range(cfg.num_points):
        if random() < cfg.cluster_fraction:
            cx, cy = centers[below(cfg.num_clusters)]
            x = min(xmax, max(xmin, gauss(cx, cfg.cluster_stddev)))
            y = min(ymax, max(ymin, gauss(cy, cfg.cluster_stddev)))
        else:
            x, y = xmin + xspan * random(), ymin + yspan * random()
        points.append(((round(x, 6), round(y, 6)), i))
    return points


def write_points(
    dfs: DistributedFileSystem,
    path: str,
    points: List[Tuple[Point, int]],
) -> str:
    """Store points as ``(record_id, (x, y))`` records."""
    dfs.write(path, [(rid, point) for point, rid in points])
    return path
