"""The contract every index substrate implements.

EFind treats indices as black boxes reachable through a ``lookup``
method (Section 1: "EFind does NOT implement any indices by itself").
The pieces of the contract the optimizer *may* use, when available:

* ``service_time`` -- the true per-lookup compute time ``T_j`` (the
  adaptive runtime never reads it directly; it *samples* it, Section 4.2);
* ``partition_scheme`` -- exposed by distributed indices that can be
  co-partitioned (the flag + partition method of Section 3.4);
* ``lookups_served`` -- how many keys the index itself served, what a
  pay-per-use service bills for (Section 1). Retries, failovers and
  batches are counted where they happen, in the job's ``fault.*`` and
  ``batch.*`` counters.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import IndexLookupError, TransientLookupError
from repro.common.sizing import sizeof
from repro.indices.partitioning import PartitionScheme
from repro.obs.trace import DEPTH_DETAIL
from repro.simcluster.faults import FaultPlan, RetryPolicy


class IndexService:
    """Base class for all index substrates."""

    #: default per-lookup service time (seconds); subclasses override or
    #: set per instance. Roughly a Cassandra read on the paper's cluster.
    DEFAULT_SERVICE_TIME = 0.5e-3

    #: Fraction of ``T_j`` that is per-key marginal work in a batched
    #: request. A multiget of B keys is served in
    #: ``C_req + B * C_key`` where ``C_req = (1 - frac) * T_j`` and
    #: ``C_key = frac * T_j``, so a batch of one costs exactly ``T_j``
    #: and larger batches amortise the fixed request overhead.
    BATCH_MARGINAL_FRACTION = 0.25

    #: True for indices with a native multiget; the strategy layer only
    #: charges the amortised batch cost (``C_req + B*C_key``) when this
    #: is set. Indices relying on the loop fallback keep paying the full
    #: per-key ``T_j``.
    supports_batch = False

    #: True for replicated indices whose batched lookups honor an
    #: attached :class:`repro.indices.routing.ReplicaRouter` (see
    #: :meth:`set_router`).
    supports_routing = False

    def __init__(self, name: str, service_time: Optional[float] = None):
        self.name = name
        self._service_time = (
            self.DEFAULT_SERVICE_TIME if service_time is None else service_time
        )
        self.lookups_served = 0
        self._fault_plan: Optional[FaultPlan] = None
        self._retry_policy = RetryPolicy()
        self._epoch = 0
        # partition -> its live hosts, filled as partitions are asked
        # for; a new fault plan empties it.
        self._partition_hosts: Dict[int, Tuple[str, ...]] = {}
        #: Optional replica-aware router consulted by routing-capable
        #: subclasses when grouping batched lookups by serving host.
        self.router = None

    # ------------------------------------------------------------------
    # The black-box lookup
    # ------------------------------------------------------------------
    def lookup(self, key: Any, ctx=None) -> List[Any]:
        """Return the (possibly empty) list of values for ``key``.

        Idempotent during a job -- the assumption behind the lookup
        cache strategy (Section 3.2).

        ``ctx`` (a :class:`repro.mapreduce.api.TaskContext`, optional)
        is where retry backoff and timeout waits are charged as
        simulated time and where ``fault.*`` counters accumulate. With
        no fault plan attached nothing can fail: the key is served by
        ``_lookup`` directly, in a single attempt.
        """
        self.lookups_served += 1
        if self._fault_plan is None:
            return self._lookup(key)
        return self._serve_with_retries(key, ctx)

    def _serve_with_retries(self, key: Any, ctx=None) -> List[Any]:
        """The retry loop behind :meth:`lookup`, minus the serve count;
        it runs only under a fault plan.

        Batched serves reuse this so a multiget makes exactly the same
        per-key fault/retry/failover decisions (and charges the same
        backoff and timeout waits) as a loop of single lookups would.
        """
        plan = self._fault_plan
        policy = self._retry_policy
        trace = getattr(ctx, "trace", None)
        last_error: Optional[Exception] = None
        for attempt in range(policy.max_attempts):
            if attempt:
                if ctx is not None:
                    ctx.charge(plan.backoff_time(policy, self.name, key, attempt))
                    ctx.counters.increment("fault", "lookups_retried")
                    if trace is not None:
                        trace.charged_instant(
                            "lookup.retry",
                            "fault",
                            ctx.charged_time,
                            DEPTH_DETAIL,
                            index=self.name,
                            attempt=attempt,
                        )
            fault = plan.lookup_fault(self.name, key, attempt)
            if fault is not None:
                # A timed-out attempt blocks for the full per-attempt
                # timeout; an errored one still cost the index a serve.
                if ctx is not None:
                    ctx.charge(
                        policy.attempt_timeout
                        if fault == "timeout"
                        else self.service_time(key)
                    )
                last_error = TransientLookupError(
                    f"injected {fault} looking up {key!r} on {self.name!r} "
                    f"(attempt {attempt + 1})"
                )
                continue
            try:
                return self._attempt(key, ctx)
            except TransientLookupError as exc:
                if ctx is not None:
                    ctx.charge(policy.attempt_timeout)
                last_error = exc
                continue
        if ctx is not None:
            ctx.counters.increment("fault", "lookups_failed")
            if trace is not None:
                trace.charged_instant(
                    "lookup.failed",
                    "fault",
                    ctx.charged_time,
                    DEPTH_DETAIL,
                    index=self.name,
                    attempts=policy.max_attempts,
                )
        raise IndexLookupError(
            f"lookup of {key!r} on index {self.name!r} failed after "
            f"{policy.max_attempts} attempts"
        ) from last_error

    def _attempt(self, key: Any, ctx=None) -> List[Any]:
        """One attempt of the retry loop (so only under a fault plan).
        Subclasses with replica placement override this to model
        failover/unavailability; raising :class:`TransientLookupError`
        here triggers a retry."""
        return self._lookup(key)

    def _lookup(self, key: Any) -> List[Any]:
        raise NotImplementedError

    def _lookup_at(self, key: Any, partition: int) -> Sequence[Any]:
        """``_lookup`` for a key already known to live in ``partition``:
        the values, which the caller copies. An index that locates a
        key itself overrides this, so a fetch locates it only once."""
        return self._lookup(key)

    def serve(self, key: Any, ctx=None) -> Tuple[Tuple[Any, ...], Sequence[str]]:
        """One lookup as the strategy layer fetches it: :meth:`lookup`'s
        values as a tuple, and the live hosts :meth:`hosts_for_key`
        lists, the key located once for both."""
        scheme = self.partition_scheme
        if scheme is None or self._fault_plan is not None:
            return tuple(self.lookup(key, ctx)), self.hosts_for_key(key)
        self.lookups_served += 1
        partition = scheme.partition_of(key)
        return tuple(self._lookup_at(key, partition)), self._live_hosts(partition)

    #: ``result_bytes(values)``: wire size of ``values``, a tuple of
    #: results this index made -- ``sizeof(values)``, called directly.
    #: An index that sized its entries when it built them overrides it
    #: to answer without walking them.
    result_bytes = staticmethod(sizeof)

    # ------------------------------------------------------------------
    # Batched lookup
    # ------------------------------------------------------------------
    def lookup_batch(self, keys: List[Any], ctx=None) -> List[List[Any]]:
        """Return the value lists for ``keys``, in order.

        The base implementation is a plain loop over :meth:`lookup` --
        correct for any index, with no amortisation: results, retries,
        fault decisions, and accounting are exactly those of the
        equivalent sequence of single-key calls. Indices with a real
        multiget (``supports_batch = True``) override this via
        :meth:`_native_lookup_batch`.
        """
        return [self.lookup(key, ctx) for key in keys]

    def _native_lookup_batch(self, keys: List[Any], ctx=None) -> List[List[Any]]:
        """Shared body for native multiget overrides: serve every key
        through the same per-key fault/retry path as :meth:`lookup`. The
        amortised *time* of a native batch is charged by the caller (the
        strategy layer) via :meth:`batch_service_time`."""
        self.lookups_served += len(keys)
        if self._fault_plan is None:
            return list(map(self._lookup, keys))
        return [self._serve_with_retries(key, ctx) for key in keys]

    def batch_request_overhead(self) -> float:
        """``C_req``: the fixed per-request cost of a multiget."""
        return self._service_time * (1.0 - self.BATCH_MARGINAL_FRACTION)

    def batch_key_time(self) -> float:
        """``C_key``: the marginal cost of one extra key in a multiget."""
        return self._service_time * self.BATCH_MARGINAL_FRACTION

    def batch_service_time(self, batch_size: int) -> float:
        """Service time of one multiget of ``batch_size`` keys:
        ``C_req + B * C_key``. With the default cost split a batch of
        one costs exactly ``T_j``, so batching never changes the
        ``batch_size=1`` timing."""
        if batch_size <= 0:
            return 0.0
        return self.batch_request_overhead() + batch_size * self.batch_key_time()

    # ------------------------------------------------------------------
    # Fault model
    # ------------------------------------------------------------------
    def set_fault_plan(
        self,
        plan: Optional[FaultPlan],
        retry_policy: Optional[RetryPolicy] = None,
    ) -> "IndexService":
        """Attach (or with ``None`` detach) a fault plan; optionally
        replace the retry policy in the same call."""
        self._fault_plan = plan
        self._partition_hosts = {}
        if retry_policy is not None:
            self._retry_policy = retry_policy
        return self

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        return self._fault_plan

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._retry_policy

    # ------------------------------------------------------------------
    # Optional capabilities
    # ------------------------------------------------------------------
    def service_time(self, key: Any = None) -> float:
        """``T_j``: time the index itself spends serving one lookup."""
        return self._service_time

    def set_service_time(self, service_time: float) -> None:
        """Adjust ``T_j`` (benchmarks model hotter/busier indices by
        raising the service time of the most-probed index)."""
        if not service_time >= 0:  # negative, or NaN
            raise ValueError(
                f"service time cannot be negative or NaN: {service_time!r}"
            )
        self._service_time = service_time

    def set_router(self, router) -> "IndexService":
        """Attach (or with None, detach) a replica-aware router for
        batched lookups. Only meaningful on replicated indices
        (``supports_routing = True``); attaching one elsewhere is an
        error so a misconfigured bench fails loudly instead of silently
        running unrouted."""
        if router is not None and not self.supports_routing:
            raise ValueError(
                f"index {self.name!r} ({type(self).__name__}) does not "
                f"support replica routing"
            )
        self.router = router
        return self

    @property
    def partition_scheme(self) -> Optional[PartitionScheme]:
        """The index's partition scheme, or None if it cannot (or will
        not) expose one. Non-None enables the index-locality strategy."""
        return None

    def hosts_for_key(self, key: Any) -> List[str]:
        """Hosts that can serve ``key`` locally (empty if unknown).

        With a fault plan attached, dead replicas drop out: callers
        (locality checks, co-partitioned scheduling) only ever see the
        hosts that can actually answer.
        """
        scheme = self.partition_scheme
        if scheme is None:
            return []
        return list(self._live_hosts(scheme.partition_of(key)))

    def _live_hosts(self, partition: int) -> Tuple[str, ...]:
        """The replicas of ``partition`` the fault plan leaves alive,
        worked out once per partition and plan."""
        hosts = self._partition_hosts.get(partition)
        if hosts is None:
            plan = self._fault_plan
            hosts = self._partition_hosts[partition] = tuple(
                h for h in self.partition_scheme.locations(partition)
                if plan is None or not plan.host_down(h)
            )
        return hosts

    def fingerprint(self) -> int:
        """A stable digest of the index contents; tests use it to verify
        the idempotence assumption holds across a job."""
        return 0

    @property
    def epoch(self) -> int:
        """Version counter for cross-job result reuse. Mutable indices
        bump it on every write, so :class:`repro.core.reuse.ReuseStore`
        entries recorded under an older epoch are dropped instead of
        served (lookups stay idempotent *within* a job -- Section 3.2 --
        but not across jobs)."""
        return self._epoch

    def bump_epoch(self) -> int:
        """Advance the version; every mutating entry point calls this."""
        self._epoch += 1
        return self._epoch

    def reset_accounting(self) -> None:
        self.lookups_served = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class MappingIndex(IndexService):
    """Convenience base for indices backed by a key -> [values] mapping."""

    supports_batch = True

    def __init__(
        self,
        name: str,
        mapping: dict,
        service_time: Optional[float] = None,
        strict: bool = False,
    ):
        super().__init__(name, service_time)
        self._mapping = mapping
        self._strict = strict

    def _lookup(self, key: Any) -> List[Any]:
        try:
            values = self._mapping[key]
        except KeyError:
            if self._strict:
                raise IndexLookupError(
                    f"index {self.name!r} has no entry for key {key!r}"
                ) from None
            return []
        if isinstance(values, list):
            return list(values)
        return [values]

    def lookup_batch(self, keys: List[Any], ctx=None) -> List[List[Any]]:
        return self._native_lookup_batch(keys, ctx)

    def __len__(self) -> int:
        return len(self._mapping)

    def fingerprint(self) -> int:
        return len(self._mapping)
