"""Replica-aware lookup routing.

The paper's KV store (Section 5.1) replicates every partition to three
data nodes but always serves a key from the partition's *first* live
replica -- so a hot partition hammers one host while its two replicas
idle. Choosing *which* replica answers at scheduling time is the cheap
way to dodge hot shards. :class:`ReplicaRouter` makes that choice for
batched lookups:

* ``least-loaded``: each key goes to the live replica with the fewest
  keys routed to it so far (cumulative outstanding load, tie broken by
  replica order -- so an idle store routes exactly like the fixed
  policy's first choice);
* hot-shard spreading: a key routed at least ``hot_key_threshold``
  times is *hot*; its requests round-robin across all live replicas of
  its partition instead of loading one;
* ``fixed``: the historical first-live-replica choice, for A/B runs.

Routing is pure bookkeeping over the same metadata every node already
holds (the PropertyFileSnitch setup), so it charges no simulated time
and never changes which values a lookup returns: keys are still served
in their original order through the per-key fault/retry path, which
keeps routed runs bit-identical to unrouted ones everywhere outside the
``route.*`` counters and the per-host multiget grouping.

The router is deliberately *stateful across batches* (load and hot-key
frequency accumulate for the lifetime of the attachment), which is what
lets it balance a skewed workload over a whole job rather than within
one batch. It is deterministic: identical key sequences produce
identical routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Route every key to its partition's first live replica (the
#: pre-routing behavior).
ROUTE_FIXED = "fixed"
#: Route each key to the least-loaded live replica; spread hot keys.
ROUTE_LEAST_LOADED = "least-loaded"

ROUTE_POLICIES = (ROUTE_FIXED, ROUTE_LEAST_LOADED)

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

    def __init__(
        self,
        policy: str = ROUTE_LEAST_LOADED,
        hot_key_threshold: int = 32,
    ):
        if policy not in ROUTE_POLICIES:
            raise ValueError(
                f"unknown route policy {policy!r}; expected one of "
                f"{ROUTE_POLICIES}"
            )
        if hot_key_threshold < 2:
            raise ValueError("hot_key_threshold must be >= 2")
        self.policy = policy
        self.hot_key_threshold = hot_key_threshold
        self._load: Dict[str, int] = {}
        self._freq: Dict[Any, int] = {}
        self._hot_cursor: Dict[Any, int] = {}
        self.batches_routed = 0
        self.keys_routed = 0
        self.hot_keys_spread = 0
        self.rebalanced = 0

    # ------------------------------------------------------------------
    def _choose(
        self,
        key: Any,
        replicas: Sequence[str],
        live: Sequence[str],
        load: Dict[str, int],
        freq: Dict[Any, int],
        hot_cursor: Dict[Any, int],
    ) -> Tuple[str, bool]:
        """Pick the serving host for one key; returns (host, was_hot).

        Operates on the passed state dicts so :meth:`plan` can dry-run
        the same algorithm without mutating the live router.
        """
        pool = list(live) if live else list(replicas)
        count = freq.get(key, 0) + 1
        freq[key] = count
        hot = (
            self.policy == ROUTE_LEAST_LOADED
            and count >= self.hot_key_threshold
            and len(pool) > 1
        )
        if hot:
            cursor = hot_cursor.get(key, 0)
            hot_cursor[key] = cursor + 1
            host = pool[cursor % len(pool)]
        elif self.policy == ROUTE_LEAST_LOADED:
            best = pool[0]
            best_load = load.get(best, 0)
            for candidate in pool[1:]:
                candidate_load = load.get(candidate, 0)
                if candidate_load < best_load:
                    best, best_load = candidate, candidate_load
            host = best
        else:
            host = pool[0]
        load[host] = load.get(host, 0) + 1
        return host, hot

    def assign(self, keys: Sequence[Any], locate: Locate) -> RouteDecision:
        """Route one batch, mutating the router's cumulative state."""
        decision = RouteDecision(keys=len(keys))
        for i, key in enumerate(keys):
            replicas, live = locate(key)
            host, hot = self._choose(
                key, replicas, live, self._load, self._freq, self._hot_cursor
            )
            pool = list(live) if live else list(replicas)
            if hot:
                decision.hot_spread += 1
            if pool and host != pool[0]:
                decision.rebalanced += 1
            decision.groups.setdefault(host, []).append(i)
        self.batches_routed += 1
        self.keys_routed += decision.keys
        self.hot_keys_spread += decision.hot_spread
        self.rebalanced += decision.rebalanced
        return decision

    def plan(self, keys: Sequence[Any], locate: Locate) -> Dict[str, List[Any]]:
        """Side-effect-free preview of :meth:`assign` from the current
        state: host -> keys (the ``multiget_plan`` shape)."""
        load = dict(self._load)
        freq = dict(self._freq)
        hot_cursor = dict(self._hot_cursor)
        groups: Dict[str, List[Any]] = {}
        for key in keys:
            replicas, live = locate(key)
            host, _ = self._choose(key, replicas, live, load, freq, hot_cursor)
            groups.setdefault(host, []).append(key)
        return groups

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
                policy=self.policy,
                keys=decision.keys,
                hosts=len(decision.groups),
                hot_spread=decision.hot_spread,
                rebalanced=decision.rebalanced,
            )

    def load_snapshot(self) -> Dict[str, int]:
        """Cumulative keys routed per host (sorted copy, for tests and
        bench tables)."""
        return dict(sorted(self._load.items()))
