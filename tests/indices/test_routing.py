"""Unit tests for the replica-aware lookup router.

The router's contract is sharp: deterministic, zero simulated-time
cost, and -- when idle -- routing to the first live replica.
Everything here exercises that contract directly; the end-to-end
bit-identity of routed runs is pinned by the differential suite in
tests/mapreduce.
"""

import pytest

from repro.core.runner import EFindRunner
from repro.indices.base import MappingIndex
from repro.indices.kvstore import DistributedKVStore
from repro.indices.routing import (
    HOT_KEY_THRESHOLD,
    ROUTE_LEAST_LOADED,
    ReplicaRouter,
)
from repro.mapreduce.counters import Counters
from repro.simcluster.faults import FaultPlan

REPLICAS = ("hostA", "hostB", "hostC")


def locate_all(key):
    """Every key lives on the same fully-live partition."""
    return REPLICAS, REPLICAS


def keys_per_host(decision):
    return {host: len(positions) for host, positions in decision.groups.items()}


class _Ctx:
    """Minimal stand-in for TaskContext: counters + charged time."""

    def __init__(self):
        self.counters = Counters()
        self.charged_time = 0.0
        self.trace = None


class TestConstruction:
    def test_unknown_policy_rejected(self, cluster, dfs):
        for policy in ("random", "fixed"):
            with pytest.raises(ValueError, match="unknown route policy"):
                EFindRunner(cluster, dfs, route_policy=policy)

    def test_hot_threshold_floor(self):
        # A threshold of 1 would spread every key from its first route.
        assert HOT_KEY_THRESHOLD >= 2
        assert ReplicaRouter().assign(["k"], locate_all).hot_spread == 0

    def test_policies_constant(self, cluster, dfs):
        # The one policy drivers spell as a literal.
        assert ROUTE_LEAST_LOADED == "least-loaded"
        for policy in (None, ROUTE_LEAST_LOADED):
            EFindRunner(cluster, dfs, route_policy=policy)


class TestChoice:
    def test_idle_router_matches_fixed_first_choice(self):
        # All loads zero -> the least-loaded tie breaks in replica
        # order, i.e. the first live replica.
        router = ReplicaRouter()
        assert router.assign(["k"], locate_all).groups == {"hostA": [0]}

    def test_least_loaded_spreads_evenly(self):
        router = ReplicaRouter()
        decision = router.assign([f"k{i}" for i in range(6)], locate_all)
        assert keys_per_host(decision) == {"hostA": 2, "hostB": 2, "hostC": 2}

    def test_load_is_cumulative_across_batches(self):
        router = ReplicaRouter()
        router.assign(["a"], locate_all)  # hostA takes 1
        decision = router.assign(["b"], locate_all)
        assert list(decision.groups) == ["hostB"]  # balanced across calls

    def test_dead_replica_never_chosen(self):
        def locate(key):
            return REPLICAS, ("hostB", "hostC")

        router = ReplicaRouter()
        decision = router.assign([f"k{i}" for i in range(4)], locate)
        assert keys_per_host(decision) == {"hostB": 2, "hostC": 2}
        # Rebalancing is counted against the live pool's head (hostB),
        # not the placement-order head.
        assert decision.rebalanced == 2

    def test_no_live_replica_falls_back_to_placement_list(self):
        # The retry layer, not the router, owns failure semantics: with
        # nothing live the router still names a host so the lookup can
        # fail (and be retried) through the normal path.
        def locate(key):
            return REPLICAS, ()

        router = ReplicaRouter()
        assert list(router.assign(["k"], locate).groups) == ["hostA"]


class TestHotKeys:
    def test_hot_key_round_robins_across_pool(self):
        router = ReplicaRouter()
        hosts, spread = [], 0
        for _ in range(HOT_KEY_THRESHOLD + 4):
            decision = router.assign(["hot"], locate_all)
            (host,) = decision.groups
            hosts.append(host)
            spread += decision.hot_spread
        # Routes below the threshold are plain least-loaded; from the
        # threshold-crossing route on, the key round-robins the pool.
        assert hosts[HOT_KEY_THRESHOLD - 1:] == [
            "hostA", "hostB", "hostC", "hostA", "hostB"
        ]
        assert spread == 5

    def test_single_replica_key_never_spreads(self):
        def locate(key):
            return ("only",), ("only",)

        router = ReplicaRouter()
        decision = router.assign(["hot"] * (HOT_KEY_THRESHOLD + 2), locate)
        assert decision.hot_spread == 0


class TestPlanAndAssign:
    def test_assign_groups_positions_in_first_use_order(self):
        router = ReplicaRouter()
        decision = router.assign(["a", "b", "c", "d"], locate_all)
        assert decision.keys == 4
        flat = sorted(i for pos in decision.groups.values() for i in pos)
        assert flat == [0, 1, 2, 3]
        assert list(decision.groups) == ["hostA", "hostB", "hostC"]

    def test_rebalanced_counts_off_head_routes(self):
        router = ReplicaRouter()
        decision = router.assign(["a", "b", "c"], locate_all)
        # hostA takes the first key (head choice), B and C take the
        # next two under load balance -> 2 rebalanced.
        assert decision.rebalanced == 2


class TestCharge:
    def test_charge_fills_route_counters_and_no_time(self):
        router = ReplicaRouter()
        ctx = _Ctx()
        keys = ["hot"] * HOT_KEY_THRESHOLD + ["x"]
        decision = router.assign(keys, locate_all)
        router.charge(ctx, decision)
        group = ctx.counters.group("route")
        assert group["batches"] == 1
        assert group["keys"] == len(keys)
        assert group["hot_spread"] == decision.hot_spread > 0
        assert group["rebalanced"] == decision.rebalanced
        assert ctx.charged_time == 0.0  # routing is free

    def test_charge_without_ctx_is_a_noop(self):
        router = ReplicaRouter()
        router.charge(None, router.assign(["k"], locate_all))

    def test_zero_counters_stay_absent(self):
        router = ReplicaRouter()
        ctx = _Ctx()
        router.charge(ctx, router.assign(["k"], locate_all))
        group = ctx.counters.group("route")
        assert "hot_spread" not in group and "rebalanced" not in group


class TestIndexIntegration:
    def test_set_router_rejected_on_non_replicated_index(self):
        idx = MappingIndex("flat", {"a": [1]})
        with pytest.raises(ValueError, match="does not support"):
            idx.set_router(ReplicaRouter())

    def test_set_router_none_always_allowed(self):
        idx = MappingIndex("flat", {"a": [1]})
        assert idx.set_router(None) is idx

    def _kv(self, cluster):
        kv = DistributedKVStore("routed", cluster, num_partitions=8)
        kv.load([(f"k{i}", i) for i in range(64)])
        return kv

    def test_routed_lookup_batch_serves_identical_values(self, cluster):
        keys = [f"k{i}" for i in range(32)] + ["missing"]
        plain = self._kv(cluster).lookup_batch(list(keys))
        routed_kv = self._kv(cluster)
        routed_kv.set_router(ReplicaRouter())
        ctx = _Ctx()
        assert routed_kv.lookup_batch(list(keys), ctx) == plain
        assert ctx.counters.group("route")["keys"] == len(keys)

    def test_router_avoids_dead_hosts_via_locate(self, cluster):
        kv = self._kv(cluster)
        kv.set_fault_plan(FaultPlan(seed=1, dead_hosts=("node01",)))
        decision = ReplicaRouter().assign(
            [f"k{i}" for i in range(32)], kv._locate
        )
        assert decision.groups and "node01" not in decision.groups
