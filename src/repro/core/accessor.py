"""IndexAccessor: the per-index-type half of the EFind interface.

"The IndexAccessor class is implemented for each type of index and can
be reused for the same type of index" (Section 2). An accessor wraps the
connection to one index service; its ``lookup`` method is the black box
EFind optimizes around.

"The partition scheme of an index can be communicated to EFind by
implementing a partition method and setting a flag in the class of
IndexAccessor" (Section 3.4) -- here, the ``exposes_partitions`` flag
plus :meth:`partition_scheme`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.indices.base import IndexService
from repro.indices.partitioning import PartitionScheme


class IndexAccessor:
    """Connects EFind to one index service.

    Subclass to customise (e.g. key translation before hitting the
    service); the default implementation forwards to the wrapped
    :class:`IndexService` directly, which suffices for most indices.
    """

    #: Set False in subclasses to withhold the partition scheme even if
    #: the underlying index has one (disables the index-locality
    #: strategy for this accessor).
    exposes_partitions: bool = True

    #: EFind assumes a lookup with the same key returns the same result
    #: during a job (Section 3.2). "Application developers can force
    #: EFind to use the baseline strategy if this assumption is false"
    #: (footnote 2) -- set False and the optimizer will never cache or
    #: deduplicate this accessor's lookups.
    idempotent: bool = True

    def __init__(self, index: IndexService):
        self.index = index

    # -- the black box ---------------------------------------------------
    def lookup(self, ik: Any, ctx=None) -> List[Any]:
        """Look up one key; returns the (possibly empty) result list.

        ``ctx`` (optional TaskContext) lets the index's retry layer
        charge backoff/timeout waits to the enclosing task.
        """
        return self.index.lookup(ik, ctx)

    def lookup_batch(self, iks: List[Any], ctx=None) -> List[List[Any]]:
        """Look up many keys in one request; result lists in key order.

        Falls back to a loop of single lookups inside the index when it
        has no native multiget (``supports_batch`` False), with
        identical results and per-key fault behavior either way.
        """
        return self.index.lookup_batch(iks, ctx)

    @property
    def serve(self) -> Callable[..., Tuple[Tuple[Any, ...], Sequence[str]]]:
        """``serve(ik, ctx)``: one fetch as the strategy layer takes it
        -- :meth:`lookup`'s values as a tuple and the hosts
        :meth:`hosts_for_key` lists. While this class keeps both
        defaults and exposes its partitions, that is the index's own
        ``serve``, handed out like :attr:`result_bytes`, which locates
        the key once for both; otherwise the two methods answer."""
        cls = type(self)
        if (
            cls.lookup is IndexAccessor.lookup
            and cls.hosts_for_key is IndexAccessor.hosts_for_key
            and self.exposes_partitions
        ):
            return self.index.serve
        return self._serve

    def _serve(self, ik: Any, ctx=None) -> Tuple[Tuple[Any, ...], Sequence[str]]:
        return tuple(self.lookup(ik, ctx)), self.hosts_for_key(ik)

    @property
    def result_bytes(self) -> Callable[[Tuple[Any, ...]], int]:
        """What sizes a tuple of :meth:`lookup`'s values: the index's
        own ``result_bytes``, handed out rather than wrapped, so a
        result costs no extra call. An accessor whose ``lookup`` changes
        the index's values returns ``sizeof`` here instead."""
        return self.index.result_bytes

    @property
    def supports_batch(self) -> bool:
        """True when the index has a native multiget whose amortised
        batch cost (``C_req + B*C_key``) the strategy layer may charge
        instead of ``B*T_j``."""
        return self.index.supports_batch

    def batch_service_time(self, batch_size: int) -> float:
        return self.index.batch_service_time(batch_size)

    def batch_request_overhead(self) -> float:
        return self.index.batch_request_overhead()

    def batch_key_time(self) -> float:
        return self.index.batch_key_time()

    # -- optimizer-visible metadata --------------------------------------
    @property
    def name(self) -> str:
        return self.index.name

    def service_time(self) -> float:
        """True ``T_j`` of the index (the runtime *samples* this; the
        optimizer never reads it directly)."""
        return self.index.service_time()

    @property
    def partition_scheme(self) -> Optional[PartitionScheme]:
        if not self.exposes_partitions:
            return None
        return self.index.partition_scheme

    @property
    def supports_locality(self) -> bool:
        """True when the index can be co-partitioned (Section 3.4)."""
        return self.partition_scheme is not None

    def hosts_for_key(self, ik: Any) -> List[str]:
        if not self.exposes_partitions:
            return []
        # Delegate to the index so a fault plan's dead replicas are
        # filtered out (locality checks must only see live hosts).
        return self.index.hosts_for_key(ik)

    def signature(self) -> str:
        """Stable identity for the statistics catalog."""
        return f"{type(self).__name__}:{self.index.name}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.index!r})"
