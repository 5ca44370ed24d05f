"""R*-tree spatial index and a distributed grid of R*-trees.

The paper's kNN-join experiment (Section 5.1, OSM) "partition[s] the US
map into 4x8 cells with small overlapping regions, then build[s] an
R*tree for each cell. Each R*tree is replicated to 3 machines."
:class:`RStarTree` is a faithful single-tree implementation (R*
ChooseSubtree, split-axis selection, and forced reinsertion per
Beckmann et al. 1990) with best-first kNN search;
:class:`GridRStarForest` is the distributed forest EFind accesses.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.common.errors import IndexLookupError
from repro.common.sizing import sizeof
from repro.indices.base import IndexService
from repro.indices.partitioning import PartitionScheme, round_robin_placements
from repro.simcluster.cluster import Cluster

Point = Tuple[float, float]

_HEADER_BYTES = sizeof(())


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle (minimum bounding rectangle)."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    @staticmethod
    def of_point(p: Point) -> "Rect":
        return Rect(p[0], p[1], p[0], p[1])

    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def margin(self) -> float:
        return 2 * ((self.xmax - self.xmin) + (self.ymax - self.ymin))

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def enlargement(self, other: "Rect") -> float:
        return self.union(other).area() - self.area()

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.xmin > self.xmax
            or other.xmax < self.xmin
            or other.ymin > self.ymax
            or other.ymax < self.ymin
        )

    def overlap_area(self, other: "Rect") -> float:
        dx = min(self.xmax, other.xmax) - max(self.xmin, other.xmin)
        dy = min(self.ymax, other.ymax) - max(self.ymin, other.ymin)
        if dx <= 0 or dy <= 0:
            return 0.0
        return dx * dy

    def contains_point(self, p: Point) -> bool:
        return self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax

    def min_dist2(self, p: Point) -> float:
        """Squared minimum distance from ``p`` to this rectangle."""
        dx = max(self.xmin - p[0], 0.0, p[0] - self.xmax)
        dy = max(self.ymin - p[1], 0.0, p[1] - self.ymax)
        return dx * dx + dy * dy

    def center(self) -> Point:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)


class _Entry:
    """Either a leaf entry (point payload) or a child-node pointer."""

    __slots__ = ("rect", "child", "payload")

    def __init__(self, rect: Rect, child: Optional["_RNode"] = None, payload=None):
        self.rect = rect
        self.child = child
        self.payload = payload


class _RNode:
    __slots__ = ("entries", "leaf", "rows")

    def __init__(self, leaf: bool):
        self.entries: List[_Entry] = []
        self.leaf = leaf

    def mbr(self) -> Rect:
        return _mbr_of(self.entries)


class RStarTree:
    """An R*-tree over 2-D points.

    * ChooseSubtree: minimum overlap enlargement at leaf level,
      minimum area enlargement above (ties by area).
    * Split: R* axis selection by minimum margin sum, then the
      distribution with minimum overlap (ties by area).
    * Forced reinsertion of the 30% farthest-from-center entries, once
      per level per insertion.
    """

    def __init__(self, max_entries: int = 16, reinsert_fraction: float = 0.3):
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.max_entries = max_entries
        self.min_entries = max(2, int(round(max_entries * 0.4)))
        self.reinsert_count = max(1, int(round(max_entries * reinsert_fraction)))
        self.root = _RNode(leaf=True)
        self._size = 0
        # Whether every node's ``rows`` mirror its entries (``_pack``).
        self._packed = False

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        points: Sequence[Tuple[Point, Any]],
        max_entries: int = 16,
    ) -> "RStarTree":
        """Build a packed tree from all points at once (STR packing,
        Leutenegger et al.): sort by x, tile into vertical strips, sort
        each strip by y, and cut into full leaves; repeat one level up
        on the node MBR centres until a single root remains. Orders of
        magnitude faster than repeated insertion and produces tighter
        nodes."""
        tree = cls(max_entries=max_entries)
        if not points:
            return tree
        entries = [_Entry(Rect.of_point(p), payload=pl) for p, pl in points]
        level_nodes = _str_pack(entries, leaf=True, cap=max_entries)
        while len(level_nodes) > 1:
            parent_entries = [_Entry(n.mbr(), child=n) for n in level_nodes]
            level_nodes = _str_pack(parent_entries, leaf=False, cap=max_entries)
        tree.root = level_nodes[0]
        tree._size = len(points)
        return tree

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, point: Point, payload: Any) -> None:
        self._packed = False
        self._insert_entry(
            _Entry(Rect.of_point(point), payload=payload), level=0, reinserted=set()
        )
        self._size += 1

    def _height(self) -> int:
        h, node = 0, self.root
        while not node.leaf:
            h += 1
            node = node.entries[0].child
        return h

    def _insert_entry(self, entry: _Entry, level: int, reinserted: set) -> None:
        path = self._choose_path(entry.rect, level)
        node = path[-1][0]
        node.entries.append(entry)
        self._propagate_overflow(path, level, reinserted)

    def _choose_path(self, rect: Rect, target_level: int):
        """Descend to the node at ``target_level`` (0 = leaf) best suited
        for ``rect``; returns [(node, index_in_parent), ...] from root."""
        path = [(self.root, -1)]
        node = self.root
        level = self._height()
        while level > target_level:
            if level - 1 == 0 or node.entries[0].child.leaf:
                idx = self._pick_min_overlap(node, rect)
            else:
                idx = self._pick_min_enlargement(node, rect)
            node = node.entries[idx].child
            path.append((node, idx))
            level -= 1
        return path

    @staticmethod
    def _pick_min_enlargement(node: _RNode, rect: Rect) -> int:
        best, best_key = 0, None
        for i, e in enumerate(node.entries):
            key = (e.rect.enlargement(rect), e.rect.area())
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    @staticmethod
    def _pick_min_overlap(node: _RNode, rect: Rect) -> int:
        best, best_key = 0, None
        for i, e in enumerate(node.entries):
            union = e.rect.union(rect)
            overlap_delta = 0.0
            for j, other in enumerate(node.entries):
                if j == i:
                    continue
                overlap_delta += union.overlap_area(other.rect) - e.rect.overlap_area(
                    other.rect
                )
            key = (overlap_delta, e.rect.enlargement(rect), e.rect.area())
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def _propagate_overflow(self, path, level: int, reinserted: set) -> None:
        current_level = level
        for depth in range(len(path) - 1, -1, -1):
            node, parent_idx = path[depth]
            if len(node.entries) <= self.max_entries:
                self._refresh_mbrs(path, depth)
                current_level += 1
                continue
            if depth > 0 and current_level not in reinserted:
                reinserted.add(current_level)
                self._refresh_mbrs(path, depth)
                self._reinsert(node, path, depth, current_level, reinserted)
                return
            self._split_node(path, depth)
            current_level += 1

    def _refresh_mbrs(self, path, depth: int) -> None:
        for d in range(depth, 0, -1):
            node, parent_idx = path[d]
            parent = path[d - 1][0]
            parent.entries[parent_idx].rect = node.mbr()

    def _reinsert(self, node, path, depth, level, reinserted) -> None:
        center = node.mbr().center()
        node.entries.sort(
            key=lambda e: -(
                (e.rect.center()[0] - center[0]) ** 2
                + (e.rect.center()[1] - center[1]) ** 2
            )
        )
        removed = node.entries[: self.reinsert_count]
        node.entries = node.entries[self.reinsert_count :]
        self._refresh_mbrs(path, depth)
        for entry in removed:
            self._insert_entry(entry, level, reinserted)

    def _split_node(self, path, depth: int) -> None:
        node, parent_idx = path[depth]
        group_a, group_b = self._rstar_split(node.entries)
        node.entries = group_a
        sibling = _RNode(leaf=node.leaf)
        sibling.entries = group_b

        if depth == 0:
            new_root = _RNode(leaf=False)
            new_root.entries = [
                _Entry(node.mbr(), child=node),
                _Entry(sibling.mbr(), child=sibling),
            ]
            self.root = new_root
        else:
            parent = path[depth - 1][0]
            parent.entries[parent_idx].rect = node.mbr()
            parent.entries.append(_Entry(sibling.mbr(), child=sibling))
            self._refresh_mbrs(path, depth - 1)

    def _rstar_split(self, entries: List[_Entry]):
        m, M = self.min_entries, len(entries)
        best_axis, best_margin = None, None
        sorted_by_axis = {}
        for axis in (0, 1):
            if axis == 0:
                order = sorted(entries, key=lambda e: (e.rect.xmin, e.rect.xmax))
            else:
                order = sorted(entries, key=lambda e: (e.rect.ymin, e.rect.ymax))
            sorted_by_axis[axis] = order
            margin_sum = 0.0
            for k in range(m, M - m + 1):
                left = _mbr_of(order[:k])
                right = _mbr_of(order[k:])
                margin_sum += left.margin() + right.margin()
            if best_margin is None or margin_sum < best_margin:
                best_axis, best_margin = axis, margin_sum

        order = sorted_by_axis[best_axis]
        best_k, best_key = m, None
        for k in range(m, M - m + 1):
            left = _mbr_of(order[:k])
            right = _mbr_of(order[k:])
            key = (left.overlap_area(right), left.area() + right.area())
            if best_key is None or key < best_key:
                best_k, best_key = k, key
        return order[:best_k], order[best_k:]

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, point: Point, payload: Any) -> bool:
        """Remove one entry matching ``(point, payload)``; returns True
        if found. Underfull nodes are condensed out of the tree and
        their remaining points re-inserted (Guttman's CondenseTree)."""
        rect = Rect.of_point(point)
        path = self._find_leaf_rec(self.root, rect, payload, [(self.root, -1)])
        if path is None:
            return False
        leaf = path[-1][0]
        for i, e in enumerate(leaf.entries):
            if e.child is None and e.rect == rect and e.payload == payload:
                leaf.entries.pop(i)
                break
        self._size -= 1
        self._packed = False
        self._condense(path)
        return True

    def _find_leaf_rec(self, node: _RNode, rect: Rect, payload: Any, path):
        """Path ``[(node, index_in_parent), ...]`` from the root to a
        leaf holding the entry, or None."""
        if node.leaf:
            for e in node.entries:
                if e.rect == rect and e.payload == payload:
                    return path
            return None
        for i, e in enumerate(node.entries):
            if e.rect.intersects(rect):
                found = self._find_leaf_rec(
                    e.child, rect, payload, path + [(e.child, i)]
                )
                if found is not None:
                    return found
        return None

    def _condense(self, path) -> None:
        """Walk the deletion path upward: drop underfull nodes (queueing
        their points for re-insertion), refresh MBRs, shrink the root."""
        orphan_points: List[_Entry] = []
        for depth in range(len(path) - 1, 0, -1):
            node, parent_idx = path[depth]
            parent = path[depth - 1][0]
            if len(node.entries) < self.min_entries:
                parent.entries.pop(parent_idx)
                self._collect_leaf_entries(node, orphan_points)
            elif parent_idx < len(parent.entries):
                parent.entries[parent_idx].rect = node.mbr()
        # Shrink the root while it has a single child.
        while not self.root.leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0].child
        if not self.root.leaf and not self.root.entries:
            self.root = _RNode(leaf=True)
        for entry in orphan_points:
            self._insert_entry(entry, level=0, reinserted=set())

    @staticmethod
    def _collect_leaf_entries(node: _RNode, out: List[_Entry]) -> None:
        stack = [node]
        while stack:
            n = stack.pop()
            if n.leaf:
                out.extend(n.entries)
            else:
                stack.extend(e.child for e in n.entries)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def knn(self, point: Point, k: int) -> List[Tuple[float, Any]]:
        """The ``k`` nearest payloads to ``point`` as ``(distance, payload)``,
        nearest first; ties in distance come out in the order the search
        met them. ``point`` must be finite (a NaN compares false with
        everything and would return arbitrary payloads).

        Best-first search with two heaps: nodes wait on a min-heap of
        ``(dist2, seq, node)``, and the ``k`` best points seen so far sit
        on a max-heap, so a leaf entry costs one push, one replace, or
        nothing. ``seq`` counts every entry *seen*, kept or not; the
        answer is the ``k`` smallest ``(dist2, seq)`` among the points of
        the nodes expanded, and a node is expanded iff fewer than ``k``
        points seen before it sort ahead of it in that order -- which
        no point can change for another node, so points need no place
        on the node heap. An inner entry at least as far as the worst of
        ``k`` held points is not queued: it could never be expanded.
        """
        found = self._nearest(point, k)
        return [(math.sqrt(-neg_d2), payload) for neg_d2, _, payload in found]

    def _nearest(self, point: Point, k: int) -> List[Tuple[float, int, Any]]:
        """``knn``'s search: ``(-dist2, -seq, payload)``, nearest first."""
        if self._size == 0 or k <= 0:
            return []
        if not self._packed:
            self._pack()
        px, py = point
        push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace
        seq = 0
        nodes = [(0.0, seq, self.root)]
        best: List[Tuple[float, int, Any]] = []
        # Once k points are held: the largest dist2 among them.
        full, bound = False, math.inf
        while nodes:
            dist2, at, node = pop(nodes)
            if full and (dist2, at) > (bound, -best[0][1]):
                break
            if node.leaf:
                for x, y, payload in node.rows:
                    seq += 1
                    dx = x - px
                    dy = y - py
                    d2 = dx * dx + dy * dy
                    if not full:
                        push(best, (-d2, -seq, payload))
                        if len(best) == k:
                            full, bound = True, -best[0][0]
                    elif d2 < bound:
                        replace(best, (-d2, -seq, payload))
                        bound = -best[0][0]
            else:
                for xmin, ymin, xmax, ymax, child in node.rows:
                    seq += 1
                    if px < xmin:
                        dx = xmin - px
                    elif px > xmax:
                        dx = px - xmax
                    else:
                        dx = 0.0
                    if py < ymin:
                        dy = ymin - py
                    elif py > ymax:
                        dy = py - ymax
                    else:
                        dy = 0.0
                    d2 = dx * dx + dy * dy
                    if d2 >= bound and full:
                        continue
                    push(nodes, (d2, seq, child))
        best.sort(reverse=True)
        return best

    def _pack(self) -> None:
        """Derive every node's ``rows`` -- what ``_nearest`` reads: plain
        ``(x, y, payload)`` per leaf entry, ``(xmin, ymin, xmax, ymax,
        child)`` per inner one -- from its entries, which stay the truth."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.leaf:
                node.rows = [
                    (e.rect.xmin, e.rect.ymin, e.payload) for e in node.entries
                ]
            else:
                node.rows = [
                    (e.rect.xmin, e.rect.ymin, e.rect.xmax, e.rect.ymax, e.child)
                    for e in node.entries
                ]
                stack.extend(e.child for e in node.entries)
        self._packed = True

    def range_search(self, rect: Rect) -> List[Any]:
        """Payloads of all points inside ``rect``."""
        out: List[Any] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            for e in node.entries:
                if not rect.intersects(e.rect):
                    continue
                if node.leaf:
                    out.append(e.payload)
                else:
                    stack.append(e.child)
        return out

    def __len__(self) -> int:
        return self._size

    def check_invariants(self) -> None:
        """Verify MBR containment and node occupancy."""
        self._check_node(self.root, is_root=True)

    def _check_node(self, node: _RNode, is_root: bool) -> None:
        if not is_root:
            assert (
                self.min_entries <= len(node.entries) <= self.max_entries
            ), "node occupancy out of range"
        assert len(node.entries) <= self.max_entries, "node overfull"
        if node.leaf:
            return
        for e in node.entries:
            child_mbr = e.child.mbr()
            assert (
                e.rect.xmin <= child_mbr.xmin
                and e.rect.ymin <= child_mbr.ymin
                and e.rect.xmax >= child_mbr.xmax
                and e.rect.ymax >= child_mbr.ymax
            ), "parent MBR does not contain child"
            self._check_node(e.child, is_root=False)


def _str_pack(entries: List[_Entry], leaf: bool, cap: int) -> List["_RNode"]:
    """One STR packing pass: group ``entries`` into nodes of ~``cap``.

    Group sizes are balanced (they differ by at most one), so every
    node ends up well above the 40% minimum occupancy.
    """
    n = len(entries)
    num_nodes = max(1, -(-n // cap))
    if num_nodes == 1:
        node = _RNode(leaf=leaf)
        node.entries = list(entries)
        return [node]

    num_strips = max(1, math.isqrt(num_nodes - 1) + 1)
    by_x = sorted(entries, key=lambda e: (e.rect.center()[0], e.rect.center()[1]))
    strip_size = -(-n // num_strips)

    nodes: List[_RNode] = []
    groups: List[List[_Entry]] = []
    for s in range(0, n, strip_size):
        strip = sorted(
            by_x[s : s + strip_size],
            key=lambda e: (e.rect.center()[1], e.rect.center()[0]),
        )
        per_strip_nodes = max(1, -(-len(strip) // cap))
        base, extra = divmod(len(strip), per_strip_nodes)
        start = 0
        for g in range(per_strip_nodes):
            size = base + (1 if g < extra else 0)
            groups.append(strip[start : start + size])
            start += size

    for group in groups:
        node = _RNode(leaf=leaf)
        node.entries = group
        nodes.append(node)
    return nodes


def _mbr_of(entries: Sequence[_Entry]) -> Rect:
    """The entries' minimum bounding rectangle, one ``min``/``max`` per
    coordinate. Both keep the first of equal values (``-0.0 == 0.0``), as
    a pairwise ``Rect.union`` fold does, so the result is that fold's."""
    xmins, ymins, xmaxs, ymaxs = zip(
        *[(e.rect.xmin, e.rect.ymin, e.rect.xmax, e.rect.ymax) for e in entries]
    )
    return Rect(min(xmins), min(ymins), max(xmaxs), max(ymaxs))


class _GridScheme(PartitionScheme):
    """Maps a point key to its grid cell."""

    def __init__(self, bounds: Rect, gx: int, gy: int, placements):
        self._bounds = bounds
        self._gx, self._gy = gx, gy
        self._xspan = max(bounds.xmax - bounds.xmin, 1e-12)
        self._yspan = max(bounds.ymax - bounds.ymin, 1e-12)
        self._placements = placements

    @property
    def num_partitions(self) -> int:
        return self._gx * self._gy

    def cell_of(self, p: Point) -> int:
        b, gx, gy = self._bounds, self._gx, self._gy
        cx = int((p[0] - b.xmin) / self._xspan * gx)
        cy = int((p[1] - b.ymin) / self._yspan * gy)
        if cx < 0:
            cx = 0
        elif cx >= gx:
            cx = gx - 1
        if cy < 0:
            cy = 0
        elif cy >= gy:
            cy = gy - 1
        return cy * gx + cx

    def partition_of(self, key: Any) -> int:
        return self.cell_of(_as_point(key))

    def locations(self, partition: int) -> List[str]:
        return list(self._placements[partition])

    def cell_rect(self, partition: int, overlap: float = 0.0) -> Rect:
        b = self._bounds
        w = (b.xmax - b.xmin) / self._gx
        h = (b.ymax - b.ymin) / self._gy
        cx, cy = partition % self._gx, partition // self._gx
        return Rect(
            b.xmin + cx * w - overlap * w,
            b.ymin + cy * h - overlap * h,
            b.xmin + (cx + 1) * w + overlap * w,
            b.ymin + (cy + 1) * h + overlap * h,
        )


def _as_point(key: Any) -> Point:
    if not (isinstance(key, tuple) and len(key) == 2):
        raise IndexLookupError(
            f"malformed request: spatial index keys must be (x, y) tuples, "
            f"got {key!r}"
        )
    try:
        point = (float(key[0]), float(key[1]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise IndexLookupError(
            f"malformed request: spatial index keys must be numbers, got {key!r}"
        ) from exc
    if not (math.isfinite(point[0]) and math.isfinite(point[1])):
        # No grid cell, and no distance order, for NaN or infinity.
        raise IndexLookupError(
            f"malformed request: spatial index keys must be finite, got {key!r}"
        )
    return point


class GridRStarForest(IndexService):
    """The paper's distributed spatial index: a grid of overlapping
    cells, one R*-tree per cell, each replicated to 3 machines.

    A lookup key is a query point ``(x, y)``; the result is the ``k``
    nearest indexed payloads. Points within a cell's overlap band are
    inserted into the neighbouring trees too, so a single-cell search
    answers boundary queries exactly as long as the k-th neighbour lies
    within the overlap band (the paper's "small overlapping regions").
    """

    def __init__(
        self,
        name: str,
        cluster: Cluster,
        points: Sequence[Tuple[Point, Any]],
        k: int,
        grid_x: int = 4,
        grid_y: int = 8,
        overlap: float = 0.05,
        replication: int = 3,
        max_entries: int = 16,
        service_time: Optional[float] = None,
    ):
        super().__init__(name, service_time)
        if not points:
            raise ValueError("cannot build a spatial index from no points")
        self.k = k
        xs = [p[0][0] for p in points]
        ys = [p[0][1] for p in points]
        bounds = Rect(min(xs), min(ys), max(xs), max(ys))
        hosts = [n.hostname for n in cluster.nodes]
        self._scheme = _GridScheme(
            bounds,
            grid_x,
            grid_y,
            round_robin_placements(hosts, grid_x * grid_y, replication),
        )
        # A cell's rectangle is its column's x band times its row's y band:
        # bin by column, then by row (``Rect.contains_point``'s comparisons).
        row0 = [self._scheme.cell_rect(c, overlap) for c in range(grid_x)]
        col0 = [self._scheme.cell_rect(r * grid_x, overlap) for r in range(grid_y)]
        columns = [
            [item for item in points if lo <= item[0][0] <= hi]
            for lo, hi in [(rect.xmin, rect.xmax) for rect in row0]
        ]
        per_cell = [  # cell r * grid_x + c
            [item for item in column if lo <= item[0][1] <= hi]
            for lo, hi in [(rect.ymin, rect.ymax) for rect in col0]
            for column in columns
        ]
        self._trees = [
            RStarTree.bulk_load(cell_points, max_entries=max_entries)
            for cell_points in per_cell
        ]
        # Every result is a tuple of payloads: when they all have one
        # size, a result's size is a product, sized here once.
        payload_sizes = {sizeof(payload) for _point, payload in points}
        self._payload_bytes = (
            payload_sizes.pop() if len(payload_sizes) == 1 else None
        )

    def _lookup(self, key: Any) -> List[Any]:
        point = _as_point(key)
        return self._payloads(point, self._scheme.cell_of(point))

    def _payloads(self, point: Point, cell: int) -> List[Any]:
        found = self._trees[cell]._nearest(point, self.k)
        return [payload for _, _, payload in found]

    def serve(self, key: Any, ctx=None) -> Tuple[Tuple[Any, ...], Sequence[str]]:
        """:meth:`IndexService.serve` with the key parsed once: the
        point both finds its cell and is searched for."""
        if self.fault_plan is not None:
            return super().serve(key, ctx)
        self.lookups_served += 1
        point = _as_point(key)
        cell = self._scheme.cell_of(point)
        return tuple(self._payloads(point, cell)), self._live_hosts(cell)

    def result_bytes(self, values: Tuple[Any, ...]) -> int:
        each = self._payload_bytes
        if each is None:
            return sizeof(values)
        return _HEADER_BYTES + len(values) * each

    def knn_with_distances(self, key: Any) -> List[Tuple[float, Any]]:
        point = _as_point(key)
        return self._trees[self._scheme.cell_of(point)].knn(point, self.k)

    @property
    def partition_scheme(self) -> PartitionScheme:
        return self._scheme

    def __len__(self) -> int:
        return sum(len(t) for t in self._trees)

    def fingerprint(self) -> int:
        return sum((i + 1) * len(t) for i, t in enumerate(self._trees))
