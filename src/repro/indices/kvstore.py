"""A Cassandra-like distributed key-value store.

This is the paper's main index service (Section 5.1): the index is
divided into 32 hash partitions, each replicated to three data nodes,
with partition-location metadata available on every node (their
PropertyFileSnitch / NetworkTopologyStrategy setup). We reproduce the
parts EFind interacts with: per-partition storage, replica placement,
and an inspectable partition scheme.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import IndexLookupError, TransientLookupError
from repro.indices.base import IndexService
from repro.indices.partitioning import (
    HashPartitionScheme,
    PartitionScheme,
    round_robin_placements,
)
from repro.simcluster.cluster import Cluster


class DistributedKVStore(IndexService):
    """Hash-partitioned, replicated key -> [values] store."""

    supports_batch = True
    supports_routing = True

    def __init__(
        self,
        name: str,
        cluster: Cluster,
        num_partitions: int = 32,
        replication: int = 3,
        service_time: Optional[float] = None,
        strict: bool = False,
    ):
        super().__init__(name, service_time)
        hosts = [n.hostname for n in cluster.nodes]
        self._scheme = HashPartitionScheme(
            num_partitions,
            round_robin_placements(hosts, num_partitions, replication),
        )
        self._partitions: List[Dict[Any, List[Any]]] = [
            {} for _ in range(num_partitions)
        ]
        self._strict = strict
        self._size = 0

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def put(self, key: Any, value: Any) -> None:
        """Append ``value`` under ``key`` (multi-valued, like a wide row)."""
        bucket = self._partitions[self._scheme.partition_of(key)]
        bucket.setdefault(key, []).append(value)
        self._size += 1
        self.bump_epoch()

    def put_unique(self, key: Any, value: Any) -> None:
        """Set ``key`` to exactly ``[value]`` (last write wins)."""
        bucket = self._partitions[self._scheme.partition_of(key)]
        old = bucket.get(key)
        if old is None:
            self._size += 1
        else:
            # Overwriting a multi-valued key drops len(old) values and
            # stores one; without this, __len__/fingerprint() drift and
            # a later delete() underflows _size.
            self._size -= len(old) - 1
        bucket[key] = [value]
        self.bump_epoch()

    def load(self, items: Iterable[Tuple[Any, Any]]) -> "DistributedKVStore":
        for key, value in items:
            self.put(key, value)
        return self

    def delete(self, key: Any) -> bool:
        """Remove ``key`` and all its values; returns True if present."""
        bucket = self._partitions[self._scheme.partition_of(key)]
        values = bucket.pop(key, None)
        if values is None:
            return False
        self._size -= len(values)
        self.bump_epoch()
        return True

    # ------------------------------------------------------------------
    # IndexService contract
    # ------------------------------------------------------------------
    def _attempt(self, key: Any, ctx=None) -> List[Any]:
        """One serve attempt with replica-liveness routing, run only
        under a fault plan (without one, ``lookup`` serves ``_lookup``).

        A dead replica's partitions are served by the surviving
        replicas (counted as ``fault.failovers``); a partition with no
        live replica, or one inside an injected outage window, raises a
        transient error so the retry layer keeps probing.
        """
        plan = self.fault_plan
        partition = self._scheme.partition_of(key)
        if plan.partition_probe(self.name, partition):
            raise TransientLookupError(
                f"partition {partition} of kvstore {self.name!r} is "
                f"unavailable"
            )
        replicas = self._scheme.locations(partition)
        live = [h for h in replicas if not plan.host_down(h)]
        if not live:
            raise TransientLookupError(
                f"all replicas of partition {partition} of kvstore "
                f"{self.name!r} are down"
            )
        if len(live) < len(replicas) and ctx is not None:
            ctx.counters.increment("fault", "failovers")
            trace = getattr(ctx, "trace", None)
            if trace is not None:
                from repro.obs.trace import DEPTH_DETAIL

                trace.charged_instant(
                    "lookup.failover",
                    "fault",
                    ctx.charged_time,
                    DEPTH_DETAIL,
                    index=self.name,
                    partition=partition,
                )
        return self._lookup(key)

    def _lookup(self, key: Any) -> List[Any]:
        return list(self._lookup_at(key, self._scheme.partition_of(key)))

    def _lookup_at(self, key: Any, partition: int) -> Sequence[Any]:
        values = self._partitions[partition].get(key)
        if values is None:
            if self._strict:
                raise IndexLookupError(
                    f"kvstore {self.name!r} has no entry for key {key!r}"
                )
            return ()
        return values

    def _locate(self, key: Any):
        """``(replicas, live)`` of one key's partition: the placement-
        order replica list, and its live subset (all of them without a
        fault plan)."""
        replicas = self._scheme.locations(self._scheme.partition_of(key))
        plan = self.fault_plan
        if plan is None:
            return replicas, replicas
        return replicas, [h for h in replicas if not plan.host_down(h)]

    def lookup_batch(self, keys: List[Any], ctx=None) -> List[List[Any]]:
        """Native multiget, each key still served through the per-key
        fault/retry path (so failover, outage, and injected-error
        decisions match single lookups exactly).

        An attached :class:`~repro.indices.routing.ReplicaRouter` picks
        the serving replica per key instead of the first live one;
        routing changes only the ``route.*`` counters, never the values
        served or the time charged.
        """
        if self.router is not None and keys:
            self.router.charge(ctx, self.router.assign(keys, self._locate))
        # Keys are served in their original order regardless of the
        # routed grouping: per-key fault decisions are (key, attempt)-
        # pure and outage probes are per-partition, so this matches the
        # grouped serve order bit-for-bit.
        return self._native_lookup_batch(keys, ctx)

    @property
    def partition_scheme(self) -> PartitionScheme:
        return self._scheme

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def num_keys(self) -> int:
        return sum(len(p) for p in self._partitions)

    def partition_sizes(self) -> List[int]:
        return [len(p) for p in self._partitions]

    def fingerprint(self) -> int:
        return self._size * 1000003 + self.num_keys
