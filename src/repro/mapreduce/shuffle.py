"""Shuffle: partition, transfer, and group map outputs for reducers.

The engine moves every record list together with the sizes its
collector recorded (:func:`partition_sized`, :func:`group_sized`;
DESIGN.md section 5.12). :func:`partition_records` and
:func:`group_by_key` are the same two loops for a caller that holds
bare records.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.common.errors import DataFlowError
from repro.common.sizing import sizeof_records
from repro.mapreduce.api import Partitioner

Record = Tuple[Any, Any]

_UNSIZED = itertools.repeat(None)


def partition_sized(
    records: Sequence[Record],
    sizes: Iterable[Any],
    partitioner: Partitioner,
    num_partitions: int,
) -> Tuple[List[List[Record]], List[list]]:
    """Split one map task's output into per-reducer buckets, and
    ``sizes`` (one per record) into the same buckets beside them."""
    buckets: List[List[Record]] = [[] for _ in range(num_partitions)]
    bucket_sizes: List[list] = [[] for _ in range(num_partitions)]
    partition = partitioner.partition
    for record, nbytes in zip(records, sizes):
        key, _ = record
        p = partition(key, num_partitions)
        # A negative index would file the pair under a reducer counted
        # from the end; anything else out of range has no reducer.
        if not (isinstance(p, int) and 0 <= p < num_partitions):
            raise DataFlowError(
                f"{type(partitioner).__name__} sent key {key!r} to partition "
                f"{p!r}; a partition is an int in [0, num_partitions="
                f"{num_partitions})"
            )
        buckets[p].append(record)
        bucket_sizes[p].append(nbytes)
    return buckets, bucket_sizes


def partition_records(
    records: Sequence[Record], partitioner: Partitioner, num_partitions: int
) -> List[List[Record]]:
    """Split one map task's output into per-reducer buckets."""
    return partition_sized(records, _UNSIZED, partitioner, num_partitions)[0]


def group_sized(
    records: Sequence[Record], sizes: Iterable[Any]
) -> Tuple[List[Tuple[Any, List[Any]]], Dict[Any, list]]:
    """Group a reducer's input by key: the ``(key, values)`` groups,
    and for each key the sizes its values' pairs arrived with
    (``sizes_of[key][i]`` belongs to ``values[i]``).

    Groups are sorted when keys are mutually comparable (Hadoop's sort
    phase); with un-comparable mixed keys we fall back to first-seen
    order, which preserves the grouping contract the reducer relies on.
    (``list.sort`` leaves a half-sorted list behind on ``TypeError``,
    and task times depend on group order: the sizes stay out of the
    items that are sorted, and are found again by key.)
    """
    grouped: Dict[Any, List[Any]] = {}
    sizes_of: Dict[Any, list] = {}
    for (key, value), nbytes in zip(records, sizes):
        values = grouped.get(key)
        if values is None:
            grouped[key] = [value]
            sizes_of[key] = [nbytes]
        else:
            values.append(value)
            sizes_of[key].append(nbytes)
    items = list(grouped.items())
    try:
        items.sort(key=lambda kv: kv[0])
    except TypeError:
        pass
    return items, sizes_of


def group_by_key(records: Sequence[Record]) -> List[Tuple[Any, List[Any]]]:
    """Group a reducer's input by key (see :func:`group_sized` for the
    order of the groups)."""
    return group_sized(records, _UNSIZED)[0]


def bucket_bytes(bucket: Sequence[Record]) -> int:
    """Size of one shuffle bucket (:func:`sizeof_records` by the name
    the shuffle's callers use). The engine does not call it: a reduce
    task sums the sizes its buckets arrived with."""
    return sizeof_records(bucket)
