"""B-tree index: single-node B-tree plus a range-partitioned
distributed B-tree.

Section 2 cites "the root node in a distributed B-tree" as a typical
index entry point, and Section 3.4 notes "the root of a distributed
B-tree describes the range partition scheme of the second level nodes"
-- exactly how :class:`DistributedBTree` exposes its partition scheme.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, List, Optional, Tuple

from repro.indices.base import IndexService
from repro.indices.partitioning import (
    PartitionScheme,
    RangePartitionScheme,
    round_robin_placements,
)
from repro.simcluster.cluster import Cluster


class _BTreeNode:
    __slots__ = ("keys", "values", "children")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.values: List[List[Any]] = []  # leaf/internal payloads per key
        self.children: List["_BTreeNode"] = []

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BTree:
    """A classic in-memory B-tree of minimum degree ``t``.

    Multi-valued: inserting an existing key appends to its value list.
    Supports point lookup, range scan, and ordered iteration.
    """

    def __init__(self, t: int = 16):
        if t < 2:
            raise ValueError("B-tree minimum degree must be >= 2")
        self.t = t
        self.root = _BTreeNode()
        self._num_keys = 0
        self._num_entries = 0

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        root = self.root
        if len(root.keys) == 2 * self.t - 1:
            new_root = _BTreeNode()
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self.root = new_root
            root = new_root
        self._insert_nonfull(root, key, value)

    def _split_child(self, parent: _BTreeNode, index: int) -> None:
        t = self.t
        child = parent.children[index]
        sibling = _BTreeNode()
        mid_key = child.keys[t - 1]
        mid_values = child.values[t - 1]

        sibling.keys = child.keys[t:]
        sibling.values = child.values[t:]
        child.keys = child.keys[: t - 1]
        child.values = child.values[: t - 1]
        if not child.is_leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]

        parent.keys.insert(index, mid_key)
        parent.values.insert(index, mid_values)
        parent.children.insert(index + 1, sibling)

    def _insert_nonfull(self, node: _BTreeNode, key: Any, value: Any) -> None:
        while True:
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.values[i].append(value)
                self._num_entries += 1
                return
            if node.is_leaf:
                node.keys.insert(i, key)
                node.values.insert(i, [value])
                self._num_keys += 1
                self._num_entries += 1
                return
            child = node.children[i]
            if len(child.keys) == 2 * self.t - 1:
                self._split_child(node, i)
                if key == node.keys[i]:
                    node.values[i].append(value)
                    self._num_entries += 1
                    return
                if key > node.keys[i]:
                    i += 1
            node = node.children[i]

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, key: Any) -> List[Any]:
        node = self.root
        while True:
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                return list(node.values[i])
            if node.is_leaf:
                return []
            node = node.children[i]

    def range_scan(self, low: Any, high: Any) -> List[Tuple[Any, Any]]:
        """All ``(key, value)`` pairs with ``low <= key <= high``."""
        out: List[Tuple[Any, Any]] = []
        self._range(self.root, low, high, out)
        return out

    def _range(self, node: _BTreeNode, low: Any, high: Any, out: list) -> None:
        i = bisect.bisect_left(node.keys, low)
        while True:
            if not node.is_leaf:
                self._range(node.children[i], low, high, out)
            if i >= len(node.keys) or node.keys[i] > high:
                return
            for value in node.values[i]:
                out.append((node.keys[i], value))
            i += 1

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, key: Any) -> bool:
        """Remove ``key`` (and all its values); returns True if found.

        Classic B-tree deletion: descend only into children that are
        guaranteed non-minimal (borrowing from or merging with siblings
        on the way down), so no second fix-up pass is needed.
        """
        found = self._delete_from(self.root, key)
        # The descent may have merged the root's children even when the
        # key turned out to be absent -- always shrink an empty root.
        if not self.root.is_leaf and len(self.root.keys) == 0:
            self.root = self.root.children[0]
        return found

    def _delete_from(self, node: _BTreeNode, key: Any) -> bool:
        i = bisect.bisect_left(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            removed_values = len(node.values[i])
            if node.is_leaf:
                node.keys.pop(i)
                node.values.pop(i)
            else:
                self._delete_internal(node, i, key)
            self._num_keys -= 1
            self._num_entries -= removed_values
            return True
        if node.is_leaf:
            return False
        i = self._ensure_nonminimal(node, i)
        return self._delete_from(node.children[i], key)

    def _delete_internal(self, node: _BTreeNode, i: int, key: Any) -> None:
        """Replace an internal key with its in-order predecessor or
        successor (whichever child can spare it), or merge and recurse."""
        t = self.t
        left, right = node.children[i], node.children[i + 1]
        if len(left.keys) >= t:
            pred_key, pred_values = self._pop_max(left)
            node.keys[i] = pred_key
            node.values[i] = pred_values
        elif len(right.keys) >= t:
            succ_key, succ_values = self._pop_min(right)
            node.keys[i] = succ_key
            node.values[i] = succ_values
        else:
            # The separator (the deleted key) sinks into the merged
            # child; erase it there without re-touching the counters.
            self._merge_children(node, i)
            self._erase_exact(node.children[i], key)

    def _erase_exact(self, node: _BTreeNode, key: Any) -> None:
        """Delete ``key`` from the subtree (it is known to exist),
        without touching the size counters."""
        i = bisect.bisect_left(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            if node.is_leaf:
                node.keys.pop(i)
                node.values.pop(i)
            else:
                self._delete_internal(node, i, key)
            return
        i = self._ensure_nonminimal(node, i)
        self._erase_exact(node.children[i], key)

    def _ensure_nonminimal(self, node: _BTreeNode, i: int) -> int:
        """Make child ``i`` hold >= t keys before descending; returns the
        (possibly shifted) child index to descend into."""
        t = self.t
        child = node.children[i]
        if len(child.keys) >= t:
            return i
        left = node.children[i - 1] if i > 0 else None
        right = node.children[i + 1] if i + 1 < len(node.children) else None
        if left is not None and len(left.keys) >= t:
            # rotate right: parent key moves down, left's max moves up
            child.keys.insert(0, node.keys[i - 1])
            child.values.insert(0, node.values[i - 1])
            node.keys[i - 1] = left.keys.pop()
            node.values[i - 1] = left.values.pop()
            if not left.is_leaf:
                child.children.insert(0, left.children.pop())
            return i
        if right is not None and len(right.keys) >= t:
            # rotate left
            child.keys.append(node.keys[i])
            child.values.append(node.values[i])
            node.keys[i] = right.keys.pop(0)
            node.values[i] = right.values.pop(0)
            if not right.is_leaf:
                child.children.append(right.children.pop(0))
            return i
        # merge with a sibling
        if left is not None:
            self._merge_children(node, i - 1)
            return i - 1
        self._merge_children(node, i)
        return i

    def _merge_children(self, node: _BTreeNode, i: int) -> None:
        """Merge children i and i+1 around separator key i."""
        left, right = node.children[i], node.children[i + 1]
        left.keys.append(node.keys.pop(i))
        left.values.append(node.values.pop(i))
        left.keys.extend(right.keys)
        left.values.extend(right.values)
        left.children.extend(right.children)
        node.children.pop(i + 1)

    def _pop_max(self, node: _BTreeNode):
        """Remove and return the maximum (key, values) of a subtree,
        keeping nodes non-minimal on the way down."""
        while not node.is_leaf:
            i = len(node.keys)
            i = self._ensure_nonminimal(node, i)
            node = node.children[i]
        return node.keys.pop(), node.values.pop()

    def _pop_min(self, node: _BTreeNode):
        while not node.is_leaf:
            i = self._ensure_nonminimal(node, 0)
            node = node.children[i]
        return node.keys.pop(0), node.values.pop(0)

    def items(self) -> Iterable[Tuple[Any, List[Any]]]:
        """Ordered (key, values) iteration."""
        yield from self._walk(self.root)

    def _walk(self, node: _BTreeNode):
        for i, key in enumerate(node.keys):
            if not node.is_leaf:
                yield from self._walk(node.children[i])
            yield key, list(node.values[i])
        if not node.is_leaf:
            yield from self._walk(node.children[-1])

    def height(self) -> int:
        h, node = 1, self.root
        while not node.is_leaf:
            h += 1
            node = node.children[0]
        return h

    def __len__(self) -> int:
        return self._num_keys

    @property
    def num_entries(self) -> int:
        return self._num_entries

    def check_invariants(self) -> None:
        """Raise AssertionError if any B-tree invariant is violated."""
        self._check(self.root, None, None, is_root=True, depth=0, leaf_depths=set())

    def _check(self, node, low, high, is_root, depth, leaf_depths):
        t = self.t
        if not is_root:
            assert t - 1 <= len(node.keys) <= 2 * t - 1, "node occupancy out of range"
        assert node.keys == sorted(node.keys), "keys unsorted"
        for key in node.keys:
            if low is not None:
                assert key > low, "key below subtree bound"
            if high is not None:
                assert key < high, "key above subtree bound"
        if node.is_leaf:
            leaf_depths.add(depth)
            assert len(leaf_depths) == 1, "leaves at different depths"
        else:
            assert len(node.children) == len(node.keys) + 1, "child count mismatch"
            for i, child in enumerate(node.children):
                child_low = node.keys[i - 1] if i > 0 else low
                child_high = node.keys[i] if i < len(node.keys) else high
                self._check(child, child_low, child_high, False, depth + 1, leaf_depths)


class DistributedBTree(IndexService):
    """Range-partitioned B-tree spread over cluster nodes.

    Built from the sorted key space: the loader splits keys into
    ``num_partitions`` contiguous ranges, builds one :class:`BTree` per
    range, and records the range boundaries in a "root table" -- the
    :class:`RangePartitionScheme` EFind uses for co-partitioning.
    """

    supports_batch = True
    supports_routing = True

    def __init__(
        self,
        name: str,
        cluster: Cluster,
        items: Iterable[Tuple[Any, Any]],
        num_partitions: int = 8,
        replication: int = 3,
        t: int = 16,
        service_time: Optional[float] = None,
    ):
        super().__init__(name, service_time)
        pairs = sorted(items, key=lambda kv: kv[0])
        if not pairs:
            raise ValueError("cannot build a distributed B-tree from no items")
        num_partitions = max(1, min(num_partitions, len(pairs)))

        per = -(-len(pairs) // num_partitions)
        chunks = [pairs[i : i + per] for i in range(0, len(pairs), per)]
        num_partitions = len(chunks)

        boundaries = [chunk[-1][0] for chunk in chunks[:-1]]
        hosts = [n.hostname for n in cluster.nodes]
        self._scheme = RangePartitionScheme(
            boundaries, round_robin_placements(hosts, num_partitions, replication)
        )
        self._trees: List[BTree] = []
        for chunk in chunks:
            tree = BTree(t=t)
            for key, value in chunk:
                tree.insert(key, value)
            self._trees.append(tree)

    def _lookup(self, key: Any) -> List[Any]:
        return self._lookup_at(key, self._scheme.partition_of(key))

    def _lookup_at(self, key: Any, partition: int) -> List[Any]:
        return self._trees[partition].search(key)

    def _locate(self, key: Any):
        """``(replicas, live)`` of one key's range partition."""
        replicas = self._scheme.locations(self._scheme.partition_of(key))
        plan = self.fault_plan
        if plan is None:
            return replicas, replicas
        return replicas, [h for h in replicas if not plan.host_down(h)]

    def lookup_batch(self, keys: List[Any], ctx=None) -> List[List[Any]]:
        """Native multiget: one descent batch against the root table.
        Per-key serves still run the fault/retry path individually.

        An attached :class:`~repro.indices.routing.ReplicaRouter`
        additionally picks the serving replica per key (load-balanced,
        hot-range spreading); routing never changes the values served
        or the time charged."""
        if self.router is not None and keys:
            self.router.charge(ctx, self.router.assign(keys, self._locate))
        return self._native_lookup_batch(keys, ctx)

    def range_scan(self, low: Any, high: Any) -> List[Tuple[Any, Any]]:
        first = self._scheme.partition_of(low)
        last = self._scheme.partition_of(high)
        out: List[Tuple[Any, Any]] = []
        for p in range(first, last + 1):
            out.extend(self._trees[p].range_scan(low, high))
        return out

    @property
    def partition_scheme(self) -> PartitionScheme:
        return self._scheme

    def __len__(self) -> int:
        return sum(len(t) for t in self._trees)

    def fingerprint(self) -> int:
        return sum((p + 1) * len(t) for p, t in enumerate(self._trees))
