"""A fetch's charge and locality, derived from the time model directly.

For every index kind a key fetched from a host holding its partition
costs ``T_j``; from anywhere else, ``(Sik + Siv) / lookup_bandwidth +
T_j + latency`` (Equation 1's inner term). The expected figure is
worked out here from ``TimeModel``'s fields, not through the engine's
helpers, and compared bit for bit with what ``LookupPipeline.fetch_one``
charged -- under Base (locality is where the task runs) and Idxloc
(local by construction, unless the replica the task ran on has died),
and through accessors that withhold their partitions or translate keys.
"""

import pytest

from repro.common.sizing import sizeof
from repro.core.accessor import IndexAccessor
from repro.core.operator import IndexOperator
from repro.core.statistics import OperatorStatsAccumulator
from repro.core.strategy import LookupPipeline, LookupSettings
from repro.indices.btree import DistributedBTree
from repro.indices.cloudservice import CloudServiceIndex
from repro.indices.dynamic import DynamicComputedIndex
from repro.indices.kvstore import DistributedKVStore
from repro.indices.rstar import GridRStarForest
from repro.mapreduce.api import TaskContext
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan
from repro.simcluster.timemodel import TimeModel

TM = TimeModel(network_latency=3e-4, lookup_bandwidth=5e6)


@pytest.fixture(scope="module")
def cluster():
    return Cluster(num_nodes=6, time_model=TM)


def kv(cluster):
    store = DistributedKVStore("kv", cluster, num_partitions=8, replication=2,
                               service_time=2e-3)
    store.load((k, f"v{k}" * (k % 4)) for k in range(40))
    return store, [3, 17, 39, "absent"]


def btree(cluster):
    tree = DistributedBTree("bt", cluster, [(k, k * 1.5) for k in range(60)],
                            num_partitions=5, replication=2, service_time=1e-3)
    return tree, [0, 31, 59, 1000]


def forest(cluster):
    points = [((x / 10, y / 10), f"p{x}.{y}") for x in range(10) for y in range(10)]
    index = GridRStarForest("geo", cluster, points, k=3, grid_x=2, grid_y=2,
                            replication=2, service_time=4e-3)
    return index, [(0.05, 0.05), (0.85, 0.15), (0.5, 0.95)]


def dynamic(cluster):
    return DynamicComputedIndex("dyn", lambda key: [key * 2, "x"]), [1, 2.5, "s"]


def cloud(cluster):
    return CloudServiceIndex("geo-svc", {1: "NYC", 2: ["LA", "SF"]}, 1e-3), [1, 2, 9]


KINDS = [kv, btree, forest, dynamic, cloud]


def expected_charge(ik, values, tj, local):
    """``T_j`` local; ``(Sik + Siv)/BW + T_j + latency`` remote."""
    if local:
        return tj
    return (sizeof(ik) + sizeof(values)) / TM.lookup_bandwidth + tj + TM.network_latency


def fetch(accessor, ik, host, cluster, assume_local=False):
    """Fetch ``ik`` through a fresh pipeline on ``host``; the charge,
    the values, the Table-1 sample and the attempt's counters."""
    op = IndexOperator("op").add_index(accessor)
    stats = OperatorStatsAccumulator("op", 1, cluster.num_nodes)
    pipeline = LookupPipeline(op, "op", 0, stats, LookupSettings(),
                              assume_local=assume_local)
    node = next(n for n in cluster.nodes if n.hostname == host)
    ctx = TaskContext(node, TM, task_id="t")
    values = pipeline.fetch_one(ik, ctx)
    return ctx.charged_time, values, stats.sample_for("t").index[0], ctx.counters


def placements(index, ik, cluster):
    """A host holding ``ik``'s partition (None without a scheme) and
    one that does not."""
    holders = index.hosts_for_key(ik)
    others = [n.hostname for n in cluster.nodes if n.hostname not in holders]
    return (holders[0] if holders else None), others[0]


@pytest.mark.parametrize("make", KINDS, ids=lambda f: f.__name__)
def test_base_charges_local_and_remote_fetches(make, cluster):
    index, keys = make(cluster)
    accessor = IndexAccessor(index)
    tj = index.service_time()
    for ik in keys:
        want = tuple(index.lookup(ik))
        holder, other = placements(index, ik, cluster)
        for host, local in ((holder, True), (other, False)):
            if host is None:
                continue  # no partition scheme: no host is local
            served = index.lookups_served
            charged, values, stat, counters = fetch(accessor, ik, host, cluster)
            assert values == want
            assert index.lookups_served == served + 1
            assert charged == expected_charge(ik, want, tj, local)
            assert (stat.lookups, stat.tj_total, stat.siv_bytes) == (1, tj, sizeof(want))
            assert counters.get("lookup", "fetches") == 1
            assert counters.get("lookup", "fetch_seconds") == charged


@pytest.mark.parametrize("make", [kv, btree, forest], ids=lambda f: f.__name__)
def test_idxloc_is_local_until_its_replica_dies(make, cluster):
    index, keys = make(cluster)
    accessor = IndexAccessor(index)
    tj = index.service_time()
    for ik in keys:
        want = tuple(index.lookup(ik))
        holder, other = placements(index, ik, cluster)
        # Scheduled onto a replica: T_j, wherever the task runs.
        charged, _, _, counters = fetch(accessor, ik, holder, cluster, assume_local=True)
        assert charged == tj
        assert counters.get("fault", "locality_fallbacks") == 0
        # That replica dies: a surviving one serves the key remotely,
        # under Idxloc (counted as a fallback) and under Base alike.
        index.set_fault_plan(FaultPlan(dead_hosts=[holder]))
        try:
            assert holder not in index.hosts_for_key(ik)
            for assume_local in (True, False):
                charged, values, _, counters = fetch(
                    accessor, ik, holder, cluster, assume_local=assume_local
                )
                assert values == want
                assert charged == expected_charge(ik, want, tj, local=False)
                assert counters.get("fault", "locality_fallbacks") == assume_local
            # A live replica is still local under Base.
            live = index.hosts_for_key(ik)[0]
            charged, _, _, _ = fetch(accessor, ik, live, cluster)
            assert charged == tj
        finally:
            index.set_fault_plan(None)


class Hidden(IndexAccessor):
    exposes_partitions = False


class Translating(IndexAccessor):
    """Keys arrive as ``"k<n>"`` and are served as ``n``: ``lookup``
    and ``hosts_for_key`` both translate."""

    def lookup(self, ik, ctx=None):
        return self.index.lookup(int(ik[1:]), ctx)

    def hosts_for_key(self, ik):
        return self.index.hosts_for_key(int(ik[1:]))


class TranslatingLookupOnly(IndexAccessor):
    """Translates in ``lookup`` only: where a key lives is still what
    the default ``hosts_for_key`` says of the raw key."""

    def lookup(self, ik, ctx=None):
        return self.index.lookup(int(ik[1:]), ctx)


def test_hidden_partitions_are_always_remote(cluster):
    index, keys = kv(cluster)
    tj = index.service_time()
    for ik in keys:
        want = tuple(index.lookup(ik))
        holder, _ = placements(index, ik, cluster)
        charged, values, _, _ = fetch(Hidden(index), ik, holder, cluster)
        assert values == want
        assert charged == expected_charge(ik, want, tj, local=False)


@pytest.mark.parametrize("cls", [Translating, TranslatingLookupOnly])
def test_an_overriding_accessor_decides_what_and_where(cls, cluster):
    index, _ = kv(cluster)
    accessor = cls(index)
    tj = index.service_time()
    for n in (3, 17, 39):
        ik = f"k{n}"
        want = tuple(index.lookup(n))
        assert want  # the raw key has no entry: translation is visible
        for node in cluster.nodes:
            host = node.hostname
            local = host in accessor.hosts_for_key(ik)
            charged, values, _, _ = fetch(accessor, ik, host, cluster)
            assert values == want
            assert charged == expected_charge(ik, want, tj, local)
        assert any(
            node.hostname in accessor.hosts_for_key(ik) for node in cluster.nodes
        )
