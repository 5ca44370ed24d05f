"""Partition schemes for distributed indices.

Section 3.4: "A distributed index often employs hash or range-based
partition schemes. In many cases, it is possible to obtain the partition
scheme from the distributed index." EFind applies the scheme in the
shuffling job so lookup keys are co-partitioned with the index, which is
the basis of the index-locality strategy.
"""

from __future__ import annotations

import bisect
from typing import Any, List, Sequence

from repro.mapreduce.api import stable_hash


class PartitionScheme:
    """Maps a key to a partition id and a partition id to host replicas."""

    @property
    def num_partitions(self) -> int:
        raise NotImplementedError

    def partition_of(self, key: Any) -> int:
        raise NotImplementedError

    def locations(self, partition: int) -> List[str]:
        """Hostnames holding a replica of ``partition``."""
        raise NotImplementedError

    def all_hosts(self) -> List[str]:
        hosts: List[str] = []
        for p in range(self.num_partitions):
            for h in self.locations(p):
                if h not in hosts:
                    hosts.append(h)
        return hosts


class HashPartitionScheme(PartitionScheme):
    """Hadoop-HashPartitioner-style scheme (the paper partitions its
    Cassandra index into 32 hash partitions this way)."""

    def __init__(self, num_partitions: int, placements: Sequence[Sequence[str]]):
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if len(placements) != num_partitions:
            raise ValueError("one placement list per partition required")
        self._num = num_partitions
        self._placements = [list(p) for p in placements]

    @property
    def num_partitions(self) -> int:
        return self._num

    def partition_of(self, key: Any) -> int:
        return stable_hash(key) % self._num

    def locations(self, partition: int) -> List[str]:
        return list(self._placements[partition])


class RangePartitionScheme(PartitionScheme):
    """Range partitioning over ordered keys (distributed B-tree style).

    ``boundaries`` are the *inclusive upper* bounds of partitions
    ``0..n-2``; the last partition is unbounded above.
    """

    def __init__(self, boundaries: Sequence[Any], placements: Sequence[Sequence[str]]):
        if len(placements) != len(boundaries) + 1:
            raise ValueError("need len(boundaries) + 1 placements")
        self._boundaries = list(boundaries)
        self._placements = [list(p) for p in placements]

    @property
    def num_partitions(self) -> int:
        return len(self._placements)

    def partition_of(self, key: Any) -> int:
        return bisect.bisect_left(self._boundaries, key)

    def locations(self, partition: int) -> List[str]:
        return list(self._placements[partition])

    @property
    def boundaries(self) -> List[Any]:
        return list(self._boundaries)


def round_robin_placements(
    hosts: Sequence[str], num_partitions: int, replication: int
) -> List[List[str]]:
    """Helper: place ``num_partitions`` partitions on ``hosts`` round
    robin with ``replication`` distinct replicas each."""
    if replication <= 0:
        raise ValueError("replication must be positive")
    replication = min(replication, len(hosts))
    return [
        [hosts[(p + r) % len(hosts)] for r in range(replication)]
        for p in range(num_partitions)
    ]
