"""Lookup conservation: what the indices served is what the job fetched.

Each index counts the keys it serves (``lookups_served``); the job
counts the keys its lookup pipeline fetched from an index
(``lookup.fetches``) and the keys an adaptive build served by scanning
the part it has not indexed yet (``build.unindexed_lookups``). Every
serve is one or the other, so over one job the two ledgers agree
exactly: a cache, reuse or build hit that still reached an index, or a
fetch that reached none, breaks the equality. Retries, failovers and
batches are not index serves; the job counts them (``fault.*``,
``batch.*``) where they happen.
"""

import pytest

from repro.core.costmodel import Strategy
from repro.core.reuse import ReuseStore
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.build import BuildSession
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan, RetryPolicy
from repro.workloads import tpch


@pytest.fixture(scope="module")
def q3():
    data = tpch.generate(tpch.TpchConfig(sf=0.0005))
    cluster = Cluster(num_nodes=12, map_slots_per_node=2, reduce_slots_per_node=2)
    dfs = DistributedFileSystem(cluster, block_size=16 * 1024)
    tpch.write_lineitem(dfs, "/lineitem", data)
    return cluster, dfs, tpch.build_indexes(cluster, data)


def forced(strategy, targets=None):
    return {
        "mode": "forced",
        "forced_strategy": strategy,
        "extra_job_targets": targets,
    }


CACHE = forced(Strategy.CACHE)

#: name -> (runner options, one run's options per job, in order).
CONFIGS = {
    "base": ({}, [forced(Strategy.BASELINE)]),
    "cache": ({}, [CACHE]),
    "repart": ({}, [forced(Strategy.REPART, ["head0"])]),
    "idxloc": ({}, [forced(Strategy.IDXLOC, ["head0"])]),
    "dynamic": ({}, [{"mode": "dynamic"}]),
    "batch64": ({"batch_size": 64}, [CACHE]),
    "reuse": ({"reuse": "store"}, [CACHE, CACHE]),
    "build": ({"build": "orders"}, [{"mode": "dynamic"}] * 2),
    "faults": ({"faults": 0.04}, [CACHE]),
}


@pytest.mark.parametrize("config", list(CONFIGS))
def test_indices_served_what_the_job_fetched(q3, config):
    cluster, dfs, indexes = q3
    options, runs = CONFIGS[config]
    kwargs = {"batch_size": options.get("batch_size", 1)}
    if "reuse" in options:
        kwargs["reuse"] = ReuseStore()
    if "build" in options:
        kwargs["build"] = BuildSession(
            {indexes.orders.name: indexes.orders}, fraction=1 / 3
        )
    if "faults" in options:
        plan = FaultPlan(seed=1729, lookup_failure_rate=options["faults"])
        indexes.set_fault_plan(plan, RetryPolicy(max_attempts=6))
        kwargs["fault_plan"] = plan
    runner = EFindRunner(cluster, dfs, **kwargs)
    try:
        fetched, scanned = [], []
        for i, run in enumerate(runs):
            indexes.reset_accounting()
            name = f"q3-{config}-{i}"
            job = tpch.make_q3_job(name, "/lineitem", f"/out/{name}", indexes)
            counters = runner.run(job, **run).counters
            served = sum(store.lookups_served for store in indexes.stores())
            assert served > 0 or config == "reuse" and i > 0
            assert served == counters.get("lookup", "fetches") + counters.get(
                "build", "unindexed_lookups"
            ), (config, i)
            fetched.append(counters.get("lookup", "fetches"))
            scanned.append(counters.get("build", "unindexed_lookups"))
    finally:
        indexes.set_fault_plan(None)
    if config == "reuse":
        assert fetched[1] < fetched[0]  # the warm run reused results
    if config == "faults":
        assert counters.get("fault", "lookups_retried") > 0
    if config == "build":
        assert 0 < scanned[1] < scanned[0]  # the warm run covered more
