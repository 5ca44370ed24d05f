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
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.rng import make_rng
from repro.common.sizing import sizeof
from repro.dfs.filesystem import DistributedFileSystem
from repro.mapreduce.api import FnPartitioner, IdentityMapper, Mapper, Reducer
from repro.mapreduce.jobconf import JobConf
from repro.mapreduce.runtime import JobResult, JobRunner
from repro.simcluster.cluster import Cluster
from repro.workloads.osm import US_BOUNDS

Point = Tuple[float, float]

_Z_BITS = 16

#: ``_SPREAD[b]`` is byte ``b`` with bit ``i`` moved to bit ``2 * i``:
#: a Morton code is interleaved a byte of each coordinate at a time.
_SPREAD = tuple(sum(((b >> i) & 1) << (2 * i) for i in range(8)) for b in range(256))

# What the scan job adds to a tagged record ``((rid, tag), point)`` when
# it re-keys it as ``((shift, partition), (z, tag, rid, point))``: the
# new key and the z-value (rid, tag and point keep one header between
# them). And what one ``(distance, brid)`` candidate costs besides brid.
_ZROW_BYTES = sizeof((0, 0)) + sizeof(0)
_CANDIDATE_BYTES = sizeof((0.0,))
_HEADER_BYTES = sizeof(())


def zvalue(point: Point, bounds=US_BOUNDS, bits: int = _Z_BITS) -> int:
    """Morton code of ``point`` within ``bounds``: each coordinate
    scaled onto ``2**bits`` cells (clamped), then interleaved."""
    xmin, ymin, xmax, ymax = bounds
    top = (1 << bits) - 1
    nx = int((point[0] - xmin) / max(xmax - xmin, 1e-12) * top)
    ny = int((point[1] - ymin) / max(ymax - ymin, 1e-12) * top)
    return _interleave(min(top, max(0, nx)), min(top, max(0, ny)), bits)


def _interleave(x: int, y: int, bits: int) -> int:
    """The low ``bits`` bits of ``x`` on the even bits of the result,
    those of ``y`` on the odd ones."""
    mask = (1 << bits) - 1
    x &= mask
    y &= mask
    z = 0
    for shift in range(0, bits, 8):
        z |= (
            _SPREAD[(x >> shift) & 0xFF] | _SPREAD[(y >> shift) & 0xFF] << 1
        ) << (2 * shift)
    return z


@dataclass(frozen=True)
class HzknnjConfig:
    k: int = 10
    alpha: int = 2
    epsilon: float = 0.003
    num_partitions: int = 16
    seed: int = 2012

    def __post_init__(self) -> None:
        # Below these the pipeline would not fail but answer something
        # else: one shift for alpha <= 0, no neighbours for k < 0.
        for name, low in (("k", 0), ("alpha", 1), ("num_partitions", 1)):
            if getattr(self, name) < low:
                raise ValueError(
                    f"H-zkNNJ needs {name} >= {low}, got {getattr(self, name)!r}"
                )


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
        # The pair going out holds the pair that came in, so its size is
        # the recorded one plus what the re-keying adds.
        nbytes = ctx.input_bytes
        if nbytes is not None and type(key) is tuple:
            nbytes += _ZROW_BYTES
        else:
            nbytes = None
        for i, (dx, dy) in enumerate(self.shifts):
            z = zvalue((point[0] + dx, point[1] + dy))
            boundaries = self.boundaries[i]
            partition = _range_partition(z, boundaries)
            row = (z, tag, rid, point)
            collector.collect((i, partition), row, nbytes)
            if tag == "B":
                # Pad the neighbouring partitions so boundary A points
                # still see k candidates on each side.
                for adjacent in (partition - 1, partition + 1):
                    if 0 <= adjacent <= len(boundaries):
                        collector.collect((i, adjacent), row, nbytes)


def _range_partition(z: int, boundaries: Sequence[int]) -> int:
    """The z-range of ``z``: how many split points lie below it."""
    return bisect_left(boundaries, z)


_Z_ORDER = itemgetter(0, 1)


class _CandidateReducer(Reducer):
    """Per (shift, z-range): sorted z scan producing k candidates on
    each side of every A point, scored by true distance."""

    def __init__(self, k: int):
        self.k = k

    def reduce(self, key, values, collector, ctx):
        k, dist = self.k, math.dist
        b_points, b_rids, a_rows = [], [], []
        # b_bytes[i]: the wire size of the first i B rows' candidates.
        b_bytes = [0]
        for _z, tag, rid, point in sorted(values, key=_Z_ORDER):
            if tag == "B":
                b_points.append(point)
                b_rids.append(rid)
                b_bytes.append(b_bytes[-1] + _CANDIDATE_BYTES + sizeof(rid))
            elif tag == "A":
                # The B rows nearest in z: those sorted just before it
                # (len(b_rids) of them) and just after.
                a_rows.append((len(b_rids), rid, point))
        num_b = len(b_rids)
        for idx, rid, point in a_rows:
            lo = max(0, idx - k)
            hi = min(num_b, idx + k)
            candidates = tuple(
                zip(map(dist, repeat(point), b_points[lo:hi]), b_rids[lo:hi])
            )
            collector.collect(
                rid,
                candidates,
                sizeof(rid) + _HEADER_BYTES + b_bytes[hi] - b_bytes[lo],
            )


class _MergeReducer(Reducer):
    """Merge candidate lists across shifts; keep the exact best k."""

    def __init__(self, k: int):
        self.k = k

    def reduce(self, key, values, collector, ctx):
        # In (distance, brid) order a brid first appears at its smallest
        # distance, so first appearances are the brids ranked by that.
        nearest, seen = [], set()
        if self.k > 0:
            for _dist, brid in sorted(chain.from_iterable(values)):
                if brid not in seen:
                    seen.add(brid)
                    nearest.append(brid)
                    if len(nearest) == self.k:
                        break
        collector.collect(key, tuple(nearest))


class _IdentityMapper(IdentityMapper):
    pass


def _tagged_copy(
    dfs: DistributedFileSystem, src: str, dst: str, tag: str
) -> str:
    """Re-key ``(rid, point)`` records as ``((rid, tag), point)``: each
    grows by its new key's header and the tag, over the size its block
    kept."""
    grown = _HEADER_BYTES + sizeof(tag)
    records: List[tuple] = []
    sizes: List[int] = []
    for block in dfs.meta(src).blocks:
        records.extend(((rid, tag), point) for rid, point in block.records)
        sizes.extend(nbytes + grown for nbytes in block.sizes)
    dfs.write(dst, records, sizes=sizes)
    return dst


def _release(dfs: DistributedFileSystem, result: JobResult, path: str) -> None:
    """Intermediate data dies with its consumer: once the step that
    reads a job's output is done, its record lists and its ``/_hzknnj``
    file go, so a run leaves only the declared result."""
    result.output, result.output_sizes = [], []
    dfs.delete(path)


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
    _release(dfs, sample_result, sample_conf.output_path)

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
    dfs.delete(a_tagged)  # the scan was their only reader
    dfs.delete(b_tagged)

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
    _release(dfs, scan_result, scan_conf.output_path)

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
