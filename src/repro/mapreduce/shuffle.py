"""Shuffle: partition, transfer, and group map outputs for reducers."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.common.sizing import sizeof_records
from repro.mapreduce.api import Partitioner

Record = Tuple[Any, Any]


def partition_records(
    records: Sequence[Record], partitioner: Partitioner, num_partitions: int
) -> List[List[Record]]:
    """Split one map task's output into per-reducer buckets."""
    buckets: List[List[Record]] = [[] for _ in range(num_partitions)]
    for key, value in records:
        buckets[partitioner.partition(key, num_partitions)].append((key, value))
    return buckets


def group_by_key(records: Sequence[Record]) -> List[Tuple[Any, List[Any]]]:
    """Group a reducer's input by key.

    Groups are sorted when keys are mutually comparable (Hadoop's sort
    phase); with un-comparable mixed keys we fall back to first-seen
    order, which preserves the grouping contract the reducer relies on.
    """
    grouped: Dict[Any, List[Any]] = {}
    for key, value in records:
        grouped.setdefault(key, []).append(value)
    items = list(grouped.items())
    try:
        items.sort(key=lambda kv: kv[0])
    except TypeError:
        pass
    return items


def bucket_bytes(bucket: Sequence[Record]) -> int:
    """Size of one shuffle bucket (:func:`sizeof_records` by the name
    the shuffle's callers use)."""
    return sizeof_records(bucket)
