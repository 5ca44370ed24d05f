"""Replica-aware lookup routing.

The paper's KV store (Section 5.1) replicates every partition to three
data nodes but always serves a key from the partition's *first* live
replica -- so a hot partition hammers one host while its two replicas
idle. Choosing *which* replica answers at scheduling time is the cheap
way to dodge hot shards. :class:`ReplicaRouter` makes that choice for
batched lookups:

* ``least-loaded``: each key goes to the live replica with the fewest
  keys routed to it so far (cumulative outstanding load, tie broken by
  replica order -- so an idle store routes to the first live replica);
* hot-shard spreading: a key routed at least :data:`HOT_KEY_THRESHOLD`
  times is *hot*; its requests round-robin across all live replicas of
  its partition instead of loading one.

Routing is pure bookkeeping over the same metadata every node already
holds (the PropertyFileSnitch setup), so it charges no simulated time
and never changes which values a lookup returns: keys are still served
in their original order through the per-key fault/retry path, which
keeps routed runs bit-identical to unrouted ones everywhere outside the
``route.*`` counters.

The router is deliberately *stateful across batches* (load and hot-key
frequency accumulate for the lifetime of the attachment), which is what
lets it balance a skewed workload over a whole job rather than within
one batch. It is deterministic: identical key sequences produce
identical routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Route each key to the least-loaded live replica; spread hot keys.
ROUTE_LEAST_LOADED = "least-loaded"

#: A key is hot from its HOT_KEY_THRESHOLD-th route on.
HOT_KEY_THRESHOLD = 32

#: ``locate(key) -> (replicas, live)``: the partition's replica list in
#: placement order, and its live subset (equal when no fault plan).
Locate = Callable[[Any], Tuple[Sequence[str], Sequence[str]]]


@dataclass
class RouteDecision:
    """Outcome of routing one batch of keys."""

    #: host -> positions (indices into the batch's key list), insertion
    #: ordered by first use of the host.
    groups: Dict[str, List[int]] = field(default_factory=dict)
    keys: int = 0
    hot_spread: int = 0
    rebalanced: int = 0


class ReplicaRouter:
    """Deterministic per-host load balancer over partition replicas."""

    def __init__(self) -> None:
        self._load: Dict[str, int] = {}
        self._freq: Dict[Any, int] = {}
        self._hot_cursor: Dict[Any, int] = {}

    # ------------------------------------------------------------------
    def _choose(self, key: Any, pool: Sequence[str]) -> Tuple[str, bool]:
        """Pick the serving host for one key; returns (host, was_hot)."""
        load = self._load
        count = self._freq.get(key, 0) + 1
        self._freq[key] = count
        hot = count >= HOT_KEY_THRESHOLD and len(pool) > 1
        if hot:
            cursor = self._hot_cursor.get(key, 0)
            self._hot_cursor[key] = cursor + 1
            host = pool[cursor % len(pool)]
        else:
            host = pool[0]
            best_load = load.get(host, 0)
            for candidate in pool[1:]:
                candidate_load = load.get(candidate, 0)
                if candidate_load < best_load:
                    host, best_load = candidate, candidate_load
        load[host] = load.get(host, 0) + 1
        return host, hot

    def assign(self, keys: Sequence[Any], locate: Locate) -> RouteDecision:
        """Route one batch, mutating the router's cumulative state."""
        decision = RouteDecision(keys=len(keys))
        for i, key in enumerate(keys):
            replicas, live = locate(key)
            pool = live or replicas
            host, hot = self._choose(key, pool)
            if hot:
                decision.hot_spread += 1
            if host != pool[0]:
                decision.rebalanced += 1
            decision.groups.setdefault(host, []).append(i)
        return decision

    # ------------------------------------------------------------------
    def charge(self, ctx, decision: RouteDecision) -> None:
        """Fold one batch's routing outcome into the task's ``route.*``
        counters (and a detail instant when traced). Charges no time."""
        if ctx is None:
            return
        ctx.counters.increment("route", "batches")
        ctx.counters.increment("route", "keys", decision.keys)
        if decision.hot_spread:
            ctx.counters.increment("route", "hot_spread", decision.hot_spread)
        if decision.rebalanced:
            ctx.counters.increment("route", "rebalanced", decision.rebalanced)
        trace = getattr(ctx, "trace", None)
        if trace is not None:
            from repro.obs.trace import DEPTH_DETAIL

            trace.charged_instant(
                "route.batch",
                "route",
                ctx.charged_time,
                DEPTH_DETAIL,
                policy=ROUTE_LEAST_LOADED,
                keys=decision.keys,
                hosts=len(decision.groups),
                hot_spread=decision.hot_spread,
                rebalanced=decision.rebalanced,
            )
