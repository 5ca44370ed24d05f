"""Differential scheduler-equivalence suite.

Speculative execution and replica-aware routing are *timing-layer*
features: they may re-place work on the simulated clock but must never
change what a job computes or how the data-path counters add up. This
suite pins that down differentially: every strategy x batch size x
fault plan combination runs twice -- speculation (or routing) off and
on -- from identical fresh environments with identical job names (so
seeded fault decisions replay exactly), and the pairs must agree on

* the output, in exact order, bit for bit;
* every counter outside the ``spec.*`` / ``route.*`` groups;
* the simulated time, except that speculation may only ever *lower* it.
"""

import random

import pytest

from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan, RetryPolicy, TaskCrash

STRATEGIES = {
    "Base": Strategy.BASELINE,
    "Cache": Strategy.CACHE,
    "Repart": Strategy.REPART,
    "Idxloc": Strategy.IDXLOC,
}
BATCH_SIZES = (1, 64)

RETRY_POLICY = RetryPolicy(
    max_attempts=5,
    base_backoff=2e-3,
    backoff_multiplier=2.0,
    max_backoff=0.05,
    jitter=0.5,
    attempt_timeout=10e-3,
)

#: name -> FaultPlan factory (None = clean run). ``slow`` is the
#: speculation headline (one x4 host); ``mixed`` stacks lookup faults,
#: a dead host, a task crash, and two stragglers so the kill/retry
#: interplay is exercised in one run.
FAULT_PLANS = {
    "clean": lambda name: None,
    "slow": lambda name: FaultPlan(
        seed=11, straggler_factors={"node02": 4.0}
    ),
    "mixed": lambda name: FaultPlan(
        seed=13,
        lookup_failure_rate=0.03,
        lookup_timeout_rate=0.01,
        dead_hosts=("node04",),
        straggler_factors={"node02": 4.0, "node05": 2.0},
        task_crashes=[TaskCrash(f"{name}/main-m0001", after_records=3)],
    ),
}


class FanoutCityOperator(IndexOperator):
    """(user, payload) -> one record per city of the user; missing
    users fan out to a 'missing' bucket, so wrong lookup results would
    change the output, not just the clock."""

    def pre_process(self, key, value, index_input):
        user, payload = value
        index_input.put(0, user)
        return key, payload

    def post_process(self, key, value, index_output, collector):
        cities = index_output.get(0).get_all()
        if not cities:
            collector.collect("missing", value)
        for city in cities:
            collector.collect(city, value)


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(20140612)
    num_users, num_records = 140, 1600
    records = []
    for i in range(num_records):
        if rng.random() < 0.15:
            user = f"ghost{rng.randrange(30):03d}"
        else:
            user = f"user{int(num_users * rng.random() ** 2.2):03d}"
        records.append((i, (user, "x" * 24)))

    def build(cluster):
        kv = DistributedKVStore("spec-eq-users", cluster, service_time=4e-3)
        for u in range(num_users):
            kv.put(f"user{u:03d}", f"city{u % 10:02d}")
            if u % 4 == 0:
                kv.put(f"user{u:03d}", f"city{(u + 3) % 10:02d}")
        return kv

    return records, build


def fresh_env(workload, plan_name: str, job_name: str):
    records, build = workload
    cluster = Cluster(num_nodes=7, map_slots_per_node=2, reduce_slots_per_node=2)
    dfs = DistributedFileSystem(cluster, block_size=8 * 1024)
    dfs.write("/in/speceq", records)
    kv = build(cluster)
    plan = FAULT_PLANS[plan_name](job_name)
    if plan is not None and (
        plan_name == "mixed"
    ):  # only the mixed plan injects lookup faults
        kv.set_fault_plan(plan, RETRY_POLICY)

    def make_job():
        job = IndexJobConf(job_name)
        job.set_input_paths("/in/speceq").set_output_path(f"/out/{job_name}")
        job.add_head_index_operator(
            FanoutCityOperator("head-op").add_index(IndexAccessor(kv))
        )
        job.set_mapper(FnMapper(lambda k, v: [(k, v)], "ident"))
        job.set_reducer(
            FnReducer(lambda k, vs: [(k, len(vs))], "count"), num_reduce_tasks=4
        )
        return job

    return cluster, dfs, make_job, plan


def run_one(
    workload,
    mode: str,
    batch_size: int,
    plan_name: str,
    speculation_factor=None,
    route_policy=None,
):
    # Off and on runs share the job name so seeded fault decisions
    # replay identically; everything else is rebuilt from scratch.
    job_name = f"speceq-{mode}-b{batch_size}-{plan_name}"
    cluster, dfs, make_job, plan = fresh_env(workload, plan_name, job_name)
    runner = EFindRunner(
        cluster,
        dfs,
        fault_plan=plan,
        batch_size=batch_size,
        speculation_factor=speculation_factor,
        route_policy=route_policy,
    )
    return runner.run(
        make_job(),
        mode="forced",
        forced_strategy=STRATEGIES[mode],
        extra_job_targets=["head-op"],
    )


def comparable_counters(result) -> dict:
    """Every counter group except the timing-layer ones under test."""
    groups = result.counters.to_dict()
    groups.pop("spec", None)
    groups.pop("route", None)
    return groups


@pytest.mark.parametrize("plan_name", list(FAULT_PLANS))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("mode", list(STRATEGIES))
def test_speculation_differential(workload, mode, batch_size, plan_name):
    off = run_one(workload, mode, batch_size, plan_name)
    on = run_one(
        workload, mode, batch_size, plan_name, speculation_factor=1.5
    )

    assert list(on.output) == list(off.output)  # exact order, not sorted
    assert comparable_counters(on) == comparable_counters(off)
    assert not off.counters.group("spec")

    spec = on.counters.group("spec")
    if spec.get("backups_won", 0):
        assert on.sim_time < off.sim_time
    else:
        assert on.sim_time == off.sim_time
    if plan_name == "clean":
        # Uniform waves: speculation must not even find a candidate
        # worth backing up, let alone change the clock.
        assert spec.get("backups_launched", 0) == 0
        assert on.sim_time == off.sim_time
    launched = spec.get("backups_launched", 0)
    assert launched == spec.get("backups_won", 0) + spec.get(
        "backups_lost", 0
    )
    if plan_name == "mixed":
        # The crash must really have fired (and been retried) in both.
        assert off.counters.get("fault", "tasks_retried") > 0


@pytest.mark.parametrize("plan_name", ["clean", "mixed"])
@pytest.mark.parametrize("mode", list(STRATEGIES))
def test_routing_differential(workload, mode, plan_name):
    """Replica routing is bookkeeping only: identical output order,
    identical non-``route.*`` counters, and the *exact* simulated time."""
    off = run_one(workload, mode, 64, plan_name)
    on = run_one(
        workload, mode, 64, plan_name, route_policy="least-loaded"
    )

    assert list(on.output) == list(off.output)
    assert comparable_counters(on) == comparable_counters(off)
    assert on.sim_time == off.sim_time
    route = on.counters.group("route")
    assert route.get("keys", 0) > 0
    assert route.get("batches", 0) > 0


@pytest.mark.parametrize("mode", list(STRATEGIES))
def test_speculation_and_routing_compose(workload, mode):
    off = run_one(workload, mode, 64, "slow")
    on = run_one(
        workload,
        mode,
        64,
        "slow",
        speculation_factor=1.5,
        route_policy="least-loaded",
    )
    assert list(on.output) == list(off.output)
    assert comparable_counters(on) == comparable_counters(off)
    assert on.sim_time <= off.sim_time

