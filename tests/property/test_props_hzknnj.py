"""H-zkNNJ's z-scan against its straightforward form.

The z-encoding mapper and the two reducers compute Morton codes from
byte tables, route with ``bisect``, scan with a running B count and
merge by one sort, and hand the collector the sizes of what they emit.
The oracles below are the plain versions those replaced: bit-by-bit
interleaving, a hand-written binary search per A row, a per-brid minimum
dict. Every emitted pair, in order, and every size must match.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.sizing import sizeof_pair
from repro.dfs.filesystem import DistributedFileSystem
from repro.mapreduce.api import OutputCollector
from repro.simcluster.cluster import Cluster
from repro.workloads import hzknnj, osm
from repro.workloads.osm import US_BOUNDS


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def oracle_interleave(x, y, bits):
    z = 0
    for b in range(bits):
        z |= ((x >> b) & 1) << (2 * b)
        z |= ((y >> b) & 1) << (2 * b + 1)
    return z


def oracle_zvalue(point, bounds=US_BOUNDS, bits=16):
    def normalize(v, lo, hi):
        span = max(hi - lo, 1e-12)
        cell = int((v - lo) / span * ((1 << bits) - 1))
        return min((1 << bits) - 1, max(0, cell))

    xmin, ymin, xmax, ymax = bounds
    return oracle_interleave(
        normalize(point[0], xmin, xmax), normalize(point[1], ymin, ymax), bits
    )


def oracle_search(sorted_ints, target):
    lo, hi = 0, len(sorted_ints)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_ints[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def oracle_map(shifts, boundaries, key, point):
    rid, tag = key
    out = []
    for i, (dx, dy) in enumerate(shifts):
        z = oracle_zvalue((point[0] + dx, point[1] + dy))
        partition = oracle_search(boundaries[i], z)
        out.append(((i, partition), (z, tag, rid, point)))
        if tag == "B":
            for adjacent in (partition - 1, partition + 1):
                if 0 <= adjacent < len(boundaries[i]) + 1:
                    out.append(((i, adjacent), (z, tag, rid, point)))
    return out


def oracle_candidates(values, k):
    rows = sorted(values, key=lambda r: (r[0], r[1]))
    b_rows = [(i, r) for i, r in enumerate(rows) if r[1] == "B"]
    b_positions = [i for i, _ in b_rows]
    out = []
    for pos, (_z, tag, rid, point) in enumerate(rows):
        if tag != "A":
            continue
        idx = oracle_search(b_positions, pos)
        lo, hi = max(0, idx - k), min(len(b_rows), idx + k)
        candidates = [
            (math.dist(point, bpoint), brid)
            for _, (_bz, _bt, brid, bpoint) in b_rows[lo:hi]
        ]
        out.append((rid, tuple(candidates)))
    return out


def oracle_merge(values, k):
    best = {}
    for candidates in values:
        for dist, brid in candidates:
            if brid not in best or dist < best[brid]:
                best[brid] = dist
    ranked = sorted(best.items(), key=lambda kv: (kv[1], kv[0]))[:k]
    return tuple(brid for brid, _d in ranked)


def walked(collector):
    return [sizeof_pair(key, value) for key, value in collector.records]


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
coords = st.tuples(
    st.floats(US_BOUNDS[0] - 5, US_BOUNDS[2] + 5),
    st.floats(US_BOUNDS[1] - 5, US_BOUNDS[3] + 5),
)
rids = st.one_of(
    st.integers(-(2**40), 2**40),
    st.text(max_size=4),
    st.tuples(st.integers(0, 9), st.text(max_size=2)),
)
tags = st.sampled_from(["A", "B", "C"])


class TestZOrder:
    @given(st.integers(0, 2**40), st.integers(0, 2**40), st.integers(0, 24))
    @settings(max_examples=300)
    def test_interleave_equals_bit_by_bit(self, x, y, bits):
        assert hzknnj._interleave(x, y, bits) == oracle_interleave(x, y, bits)

    @given(coords)
    @settings(max_examples=300)
    def test_zvalue_equals_oracle(self, point):
        assert hzknnj.zvalue(point) == oracle_zvalue(point)

    @given(st.integers(0, 2**33), st.lists(st.integers(0, 2**33), max_size=12))
    def test_range_partition_equals_binary_search(self, z, raw):
        bounds = sorted(raw)
        assert hzknnj._range_partition(z, bounds) == oracle_search(bounds, z)


class TestZEncodeMapper:
    @given(
        st.lists(st.tuples(st.tuples(rids, tags), coords), max_size=12),
        st.lists(
            st.lists(st.integers(0, 2**32), max_size=5), min_size=1, max_size=3
        ),
        st.booleans(),
    )
    @settings(max_examples=150)
    def test_pairs_and_sizes(self, records, raw_bounds, sized):
        boundaries = [sorted(b) for b in raw_bounds]
        shifts = [(0.0, 0.0), (1.5, -0.25), (-3.0, 2.0)][: len(boundaries)]
        mapper = hzknnj._ZEncodeMapper(shifts, boundaries)
        collector = OutputCollector()
        ctx = SimpleNamespace(input_bytes=None)
        if sized:
            mapper.run(records, [sizeof_pair(k, v) for k, v in records], collector, ctx)
        else:  # ``map`` called outside a chain: no size came with the record
            for key, point in records:
                mapper.map(key, point, collector, ctx)
        expected = [
            pair for key, point in records
            for pair in oracle_map(shifts, boundaries, key, point)
        ]
        assert collector.records == expected
        assert collector.sizes == walked(collector)


class TestReducers:
    @given(
        st.lists(st.tuples(st.integers(0, 50), tags, rids, coords), max_size=40),
        st.integers(0, 6),
    )
    @settings(max_examples=200)
    def test_candidates_and_sizes(self, values, k):
        collector = OutputCollector()
        hzknnj._CandidateReducer(k).reduce((0, 0), values, collector, None)
        assert collector.records == oracle_candidates(values, k)
        assert collector.sizes == walked(collector)

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    # Few distinct distances, so ties are common.
                    st.sampled_from([0.0, 0.5, 1.0, 2.25, 7.0]),
                    st.integers(0, 30),
                ),
                max_size=12,
            ),
            max_size=4,
        ),
        st.integers(0, 12),
    )
    @settings(max_examples=200)
    def test_merge_equals_per_brid_minimum(self, values, k):
        collector = OutputCollector()
        reducer = hzknnj._MergeReducer(k)
        reducer.reduce("a", [tuple(c) for c in values], collector, None)
        assert collector.records == [("a", oracle_merge(values, k))]


class TestPipelineSizes:
    @given(
        st.lists(st.tuples(rids, coords), max_size=30),
        st.sampled_from(["A", "B", "tag"]),
        st.booleans(),
    )
    @settings(max_examples=60)
    def test_tagged_copy_sizes_are_walks(self, records, tag, sized):
        dfs = DistributedFileSystem(Cluster(num_nodes=3), block_size=256)
        sizes = [sizeof_pair(k, v) for k, v in records] if sized else None
        dfs.write("/src", records, sizes=sizes)
        hzknnj._tagged_copy(dfs, "/src", "/dst", tag)
        assert dfs.read("/dst") == [((rid, tag), p) for rid, p in records]
        for block in dfs.meta("/dst").blocks:
            assert block.sizes == [sizeof_pair(k, v) for k, v in block.records]

    def test_every_size_handed_over_is_a_walk(self, monkeypatch):
        collect, extend = OutputCollector.collect, OutputCollector.extend
        handed = []

        def checked_collect(collector, key, value, nbytes=None):
            if nbytes is not None:
                assert nbytes == sizeof_pair(key, value), (key, value)
                handed.append(nbytes)
            collect(collector, key, value, nbytes)

        def checked_extend(collector, records, sizes):
            assert list(sizes) == [sizeof_pair(k, v) for k, v in records]
            extend(collector, records, sizes)

        monkeypatch.setattr(OutputCollector, "collect", checked_collect)
        monkeypatch.setattr(OutputCollector, "extend", checked_extend)
        a = osm.generate_points(osm.OsmConfig(num_points=150, seed=3), "A")
        b = osm.generate_points(osm.OsmConfig(num_points=150, seed=4), "B")
        cluster = Cluster(num_nodes=4, map_slots_per_node=2)
        dfs = DistributedFileSystem(cluster, block_size=2048)
        osm.write_points(dfs, "/a", [(p, f"a{rid}") for p, rid in a])
        osm.write_points(dfs, "/b", b)
        cfg = hzknnj.HzknnjConfig(k=4, alpha=2, num_partitions=4)
        result = hzknnj.run_hzknnj(cluster, dfs, "/a", "/b", cfg)
        assert len(result.neighbours) == len(a)
        assert handed
        for path in dfs.listdir():
            for block in dfs.meta(path).blocks:
                assert block.sizes == [sizeof_pair(k, v) for k, v in block.records]
