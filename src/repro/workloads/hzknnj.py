"""H-zkNNJ: the hand-tuned MapReduce kNN join baseline (Zhang, Li,
Jestes, EDBT 2012 [22]), reimplemented from its description.

The algorithm avoids any index by reducing kNN search to one-dimensional
z-order scans:

1. Generate ``alpha`` copies of both data sets, each translated by a
   random shift vector (shift 0 for the first copy), and map every point
   to its Morton z-value.
2. Range-partition the z-space by sampled quantiles (the epsilon knob
   controls the sample rate).
3. For each (shift, partition): sort by z-value and, for every A point,
   take the k preceding and k following B points as candidates, scoring
   them by true Euclidean distance. Partition boundaries are padded with
   the k edge B-points of the neighbouring partition, as in the paper.
4. Merge candidates across shifts per A point and keep the best k.

The paper runs it with alpha = 2 and epsilon = 0.003 (Section 5.4); the
result is approximate, with recall approaching 1 as alpha grows.

This module is deliberately built on the raw MapReduce API -- it is the
"hand-coded, hand-tuned" comparison point for EFind (Figure 13).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.rng import make_rng
from repro.dfs.filesystem import DistributedFileSystem
from repro.mapreduce.api import FnPartitioner, IdentityMapper, Mapper, Reducer
from repro.mapreduce.jobconf import JobConf
from repro.mapreduce.runtime import JobResult, JobRunner
from repro.simcluster.cluster import Cluster
from repro.workloads.osm import US_BOUNDS

Point = Tuple[float, float]

_Z_BITS = 16


def zvalue(point: Point, bounds=US_BOUNDS, bits: int = _Z_BITS) -> int:
    """Morton code of ``point`` within ``bounds``."""
    xmin, ymin, xmax, ymax = bounds
    nx = _normalize(point[0], xmin, xmax, bits)
    ny = _normalize(point[1], ymin, ymax, bits)
    return _interleave(nx, ny, bits)


def _normalize(v: float, lo: float, hi: float, bits: int) -> int:
    span = max(hi - lo, 1e-12)
    cell = int((v - lo) / span * ((1 << bits) - 1))
    return min((1 << bits) - 1, max(0, cell))


def _interleave(x: int, y: int, bits: int) -> int:
    z = 0
    for b in range(bits):
        z |= ((x >> b) & 1) << (2 * b)
        z |= ((y >> b) & 1) << (2 * b + 1)
    return z


@dataclass(frozen=True)
class HzknnjConfig:
    k: int = 10
    alpha: int = 2
    epsilon: float = 0.003
    num_partitions: int = 16
    seed: int = 2012


@dataclass
class HzknnjResult:
    """kNN assignments plus the simulated cost of the whole pipeline."""

    neighbours: Dict[int, Tuple[int, ...]]
    sim_time: float
    job_results: List[JobResult] = field(default_factory=list)


class _ZEncodeMapper(Mapper):
    """Shift + z-encode both (pre-tagged) inputs for the range sort."""

    def __init__(self, shifts, boundaries):
        self.shifts = shifts
        self.boundaries = boundaries

    def map(self, key, value, collector, ctx):
        rid, tag = key
        point = value
        for i, (dx, dy) in enumerate(self.shifts):
            shifted = (point[0] + dx, point[1] + dy)
            z = zvalue(shifted)
            partition = _range_partition(z, self.boundaries[i])
            collector.collect((i, partition), (z, tag, rid, point))
            if tag == "B":
                # Pad the neighbouring partitions so boundary A points
                # still see k candidates on each side.
                for adjacent in (partition - 1, partition + 1):
                    if 0 <= adjacent < len(self.boundaries[i]) + 1:
                        collector.collect((i, adjacent), (z, tag, rid, point))


def _range_partition(z: int, boundaries: Sequence[int]) -> int:
    lo, hi = 0, len(boundaries)
    while lo < hi:
        mid = (lo + hi) // 2
        if boundaries[mid] < z:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _CandidateReducer(Reducer):
    """Per (shift, z-range): sorted z scan producing k candidates on
    each side of every A point, scored by true distance."""

    def __init__(self, k: int):
        self.k = k

    def reduce(self, key, values, collector, ctx):
        rows = sorted(values, key=lambda r: (r[0], r[1]))
        b_rows = [(i, r) for i, r in enumerate(rows) if r[1] == "B"]
        b_positions = [i for i, _ in b_rows]
        for pos, row in enumerate(rows):
            z, tag, rid, point = row
            if tag != "A":
                continue
            # B rows with sorted position nearest to this A row.
            idx = _bisect(b_positions, pos)
            lo = max(0, idx - self.k)
            hi = min(len(b_rows), idx + self.k)
            candidates = []
            for _, (bz, _btag, brid, bpoint) in b_rows[lo:hi]:
                dist = math.dist(point, bpoint)
                candidates.append((dist, brid))
            collector.collect(rid, tuple(candidates))


def _bisect(positions: List[int], target: int) -> int:
    lo, hi = 0, len(positions)
    while lo < hi:
        mid = (lo + hi) // 2
        if positions[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _MergeReducer(Reducer):
    """Merge candidate lists across shifts; keep the exact best k."""

    def __init__(self, k: int):
        self.k = k

    def reduce(self, key, values, collector, ctx):
        best: Dict[int, float] = {}
        for candidates in values:
            for dist, brid in candidates:
                if brid not in best or dist < best[brid]:
                    best[brid] = dist
        ranked = sorted(best.items(), key=lambda kv: (kv[1], kv[0]))[: self.k]
        collector.collect(key, tuple(brid for brid, _d in ranked))


class _IdentityMapper(IdentityMapper):
    pass


def _tagged_copy(
    dfs: DistributedFileSystem, src: str, dst: str, tag: str
) -> str:
    """Re-key ``(rid, point)`` records as ``((rid, tag), point)``."""
    dfs.write(dst, [((rid, tag), point) for rid, point in dfs.read(src)])
    return dst


def run_hzknnj(
    cluster: Cluster,
    dfs: DistributedFileSystem,
    a_path: str,
    b_path: str,
    cfg: HzknnjConfig,
    start_time: float = 0.0,
) -> HzknnjResult:
    """Run the full H-zkNNJ pipeline; returns assignments + sim time."""
    runner = JobRunner(cluster, dfs)
    rng = make_rng(cfg.seed, "hzknnj-shifts")
    xmin, ymin, xmax, ymax = US_BOUNDS
    shifts = [(0.0, 0.0)] + [
        (rng.uniform(0, (xmax - xmin) / 8), rng.uniform(0, (ymax - ymin) / 8))
        for _ in range(cfg.alpha - 1)
    ]

    # ---- Phase 1: sample B and derive per-shift quantile boundaries.
    sample_rate = max(cfg.epsilon, 16.0 * cfg.num_partitions / max(1, _count(dfs, b_path)))
    sampler = _QuantileSampler(shifts, sample_rate, cfg.seed)
    sample_conf = JobConf(
        name="hzknnj-sample",
        input_paths=[b_path],
        output_path="/_hzknnj/sample",
        map_chain=[sampler],
    )
    sample_result = runner.run(sample_conf, start_time=start_time)
    boundaries = _quantile_boundaries(
        sample_result.output, len(shifts), cfg.num_partitions
    )

    # ---- Phase 2: z-encode, range partition, per-range candidate scan.
    a_tagged = _tagged_copy(dfs, a_path, "/_hzknnj/a-tagged", "A")
    b_tagged = _tagged_copy(dfs, b_path, "/_hzknnj/b-tagged", "B")
    total_partitions = len(shifts) * cfg.num_partitions
    scan_conf = JobConf(
        name="hzknnj-scan",
        input_paths=[a_tagged, b_tagged],
        output_path="/_hzknnj/candidates",
        map_chain=[_ZEncodeMapper(shifts, boundaries)],
        reducer=_CandidateReducer(cfg.k),
        num_reduce_tasks=total_partitions,
        partitioner=FnPartitioner(
            lambda key, n: (key[0] * cfg.num_partitions + key[1]) % n
        ),
    )
    scan_result = runner.run(scan_conf, start_time=sample_result.end_time)

    # ---- Phase 3: merge candidates across shifts, exact top-k.
    merge_conf = JobConf(
        name="hzknnj-merge",
        input_paths=["/_hzknnj/candidates"],
        output_path="/_hzknnj/result",
        map_chain=[_IdentityMapper()],
        reducer=_MergeReducer(cfg.k),
        num_reduce_tasks=cluster.num_nodes,
    )
    merge_result = runner.run(merge_conf, start_time=scan_result.end_time)

    neighbours = {rid: tuple(bids) for rid, bids in merge_result.output}
    return HzknnjResult(
        neighbours=neighbours,
        sim_time=merge_result.end_time - start_time,
        job_results=[sample_result, scan_result, merge_result],
    )


class _QuantileSampler(Mapper):
    """Map-side reservoir-free sampling of shifted z-values."""

    def __init__(self, shifts, rate: float, seed: int):
        self.shifts = shifts
        self.rate = rate
        self._rng = make_rng(seed, "hzknnj-sampler")

    def map(self, key, value, collector, ctx):
        if self._rng.random() > self.rate:
            return
        point = value
        for i, (dx, dy) in enumerate(self.shifts):
            collector.collect(i, zvalue((point[0] + dx, point[1] + dy)))


def _quantile_boundaries(
    samples: List[Tuple[int, int]], num_shifts: int, num_partitions: int
) -> List[List[int]]:
    """Per shift: ``num_partitions - 1`` z-value split points."""
    per_shift: List[List[int]] = [[] for _ in range(num_shifts)]
    for shift, z in samples:
        per_shift[shift].append(z)
    out: List[List[int]] = []
    for zs in per_shift:
        zs.sort()
        if not zs:
            out.append([])
            continue
        bounds = [
            zs[min(len(zs) - 1, (q * len(zs)) // num_partitions)]
            for q in range(1, num_partitions)
        ]
        out.append(bounds)
    return out


def _count(dfs: DistributedFileSystem, path: str) -> int:
    return dfs.meta(path).num_records
