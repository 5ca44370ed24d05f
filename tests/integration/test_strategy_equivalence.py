"""Differential strategy-equivalence suite.

A seeded-random workload (skewed keys, multi-valued keys, empty
lookups) executes under every strategy x batch size x fault-plan
combination; all runs must produce identical (sorted) output, and the
``fault.*`` / ``batch.*`` counters must be internally consistent.
``batch_size=1`` additionally must be bit-identical -- exact output
order, exact simulated time, exact counters -- to a runner that never
heard of batching, because it takes the same code path.
"""

import random

import pytest

from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.reuse import ReuseStore
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.build import BuildSession
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan, RetryPolicy

STRATEGIES = {
    "Base": Strategy.BASELINE,
    "Cache": Strategy.CACHE,
    "Repart": Strategy.REPART,
    "Idxloc": Strategy.IDXLOC,
}
BATCH_SIZES = (1, 7, 64)

RETRY_POLICY = RetryPolicy(
    max_attempts=5,
    base_backoff=2e-3,
    backoff_multiplier=2.0,
    max_backoff=0.05,
    jitter=0.5,
    attempt_timeout=10e-3,
)


def make_fault_plan() -> FaultPlan:
    return FaultPlan(
        seed=4111,
        lookup_failure_rate=0.03,
        lookup_timeout_rate=0.015,
        dead_hosts=("node03",),
    )


class FanoutCityOperator(IndexOperator):
    """(user, payload) -> one record per city value of the user; users
    missing from the index fan out to a 'missing' bucket. Multi-valued
    keys therefore change the *output*, not just the timing."""

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
    """Seeded-random workload: Zipf-ish user skew, ~1/5 of the users
    multi-valued (two home cities), ~1/6 of the probes hitting users
    the index has never heard of (empty lookups)."""
    rng = random.Random(20140611)
    num_users, num_records = 180, 2500
    records = []
    for i in range(num_records):
        if rng.random() < 0.17:
            user = f"ghost{rng.randrange(40):03d}"  # not in the index
        else:
            user = f"user{int(num_users * rng.random() ** 2.4):03d}"  # skew
        records.append((i, (user, "x" * 30)))

    def build(cluster):
        kv = DistributedKVStore("eq-users", cluster, service_time=4e-3)
        for u in range(num_users):
            kv.put(f"user{u:03d}", f"city{u % 12:02d}")
            if u % 5 == 0:
                kv.put(f"user{u:03d}", f"city{(u + 7) % 12:02d}")
        return kv

    return records, build


def fresh_env(workload, fault: bool):
    records, build = workload
    cluster = Cluster(num_nodes=8, map_slots_per_node=2, reduce_slots_per_node=2)
    dfs = DistributedFileSystem(cluster, block_size=8 * 1024)
    dfs.write("/in/eq", records)
    kv = build(cluster)
    plan = None
    if fault:
        plan = make_fault_plan()
        kv.set_fault_plan(plan, RETRY_POLICY)

    def make_job(name):
        job = IndexJobConf(name)
        job.set_input_paths("/in/eq").set_output_path(f"/out/{name}")
        job.add_head_index_operator(
            FanoutCityOperator("head-op").add_index(IndexAccessor(kv))
        )
        job.set_mapper(FnMapper(lambda k, v: [(k, v)], "ident"))
        job.set_reducer(
            FnReducer(lambda k, vs: [(k, len(vs))], "count"), num_reduce_tasks=4
        )
        return job

    return cluster, dfs, make_job, plan


def run_one(workload, mode: str, batch_size: int, fault: bool):
    cluster, dfs, make_job, plan = fresh_env(workload, fault)
    runner = EFindRunner(cluster, dfs, fault_plan=plan, batch_size=batch_size)
    return runner.run(
        make_job(f"eq-{mode}-b{batch_size}-{'f' if fault else 'c'}"),
        mode="forced",
        forced_strategy=STRATEGIES[mode],
        extra_job_targets=["head-op"],
    )


@pytest.fixture(scope="module")
def reference_output(workload):
    result = run_one(workload, "Base", 1, fault=False)
    return sorted(result.output)


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("mode", list(STRATEGIES))
def test_equivalence_and_counter_consistency(
    workload, reference_output, mode, batch_size, fault
):
    result = run_one(workload, mode, batch_size, fault)
    assert sorted(result.output) == reference_output

    faults = result.counters.group("fault")
    batches = result.counters.group("batch")

    # fault.* consistency: the retry layer must fully absorb injected
    # faults (no terminal failures), and clean runs inject nothing.
    assert faults.get("lookups_failed", 0.0) == 0.0
    if fault:
        assert faults.get("lookups_retried", 0.0) > 0
        assert faults.get("failovers", 0.0) > 0
    else:
        assert all(v == 0.0 for v in faults.values())

    # batch.* consistency. batch_size=1 must not even create the
    # counter group (it never issues a multiget); batched runs must
    # fill every multiget with >= 1 key and <= batch_size records'
    # worth of keys, and cannot finish-flush more often than they flush.
    if batch_size == 1:
        assert batches == {}
    else:
        issued = batches.get("batches_issued", 0.0)
        keys = batches.get("keys_batched", 0.0)
        finishes = batches.get("flushes_on_finish", 0.0)
        assert issued > 0
        assert keys >= issued  # mean fill >= 1
        assert finishes <= issued


@pytest.mark.parametrize("mode", list(STRATEGIES))
def test_batch_size_one_is_bit_identical(workload, mode):
    """batch_size=1 (the default) and an explicit batch_size=1 runner
    agree exactly -- same output *order*, same simulated time to the
    bit, same counters.
    """
    cluster, dfs, make_job, _ = fresh_env(workload, fault=False)
    default_runner = EFindRunner(cluster, dfs)
    explicit_runner = EFindRunner(cluster, dfs, batch_size=1)

    kwargs = dict(
        mode="forced",
        forced_strategy=STRATEGIES[mode],
        extra_job_targets=["head-op"],
    )
    a = default_runner.run(make_job(f"bit-a-{mode}"), **kwargs)
    b = explicit_runner.run(make_job(f"bit-b-{mode}"), **kwargs)

    assert list(a.output) == list(b.output)  # exact order, not sorted
    assert a.sim_time == b.sim_time  # bit-identical simulated time
    assert sorted(a.counters.items()) == sorted(b.counters.items())
    assert a.counters.group("batch") == {}


def test_batching_reduces_simulated_time(workload):
    """Larger batches amortise the per-request lookup cost, so the
    lookup-dominated baseline run gets monotonically faster."""
    times = []
    for batch_size in BATCH_SIZES:
        result = run_one(workload, "Base", batch_size, fault=False)
        times.append(result.sim_time)
    assert times[0] > times[1] > times[2]


class EchoOperator(IndexOperator):
    """(i, value) -> (i, (value, results)): what each input value got."""

    def pre_process(self, key, value, index_input):
        index_input.put(0, value)
        return key, value

    def post_process(self, key, value, index_output, collector):
        collector.collect(key, (value, tuple(index_output.get(0).get_all())))


def test_ints_and_equal_floats_get_one_answer_under_every_strategy():
    """Input values 1, 1.0, 2.0, 2 in one split, looked up in a KV store
    that holds int keys 1 and 2: every strategy must answer each value
    alike."""
    answers = {}
    for mode, strategy in STRATEGIES.items():
        cluster = Cluster(num_nodes=4, map_slots_per_node=2, reduce_slots_per_node=2)
        dfs = DistributedFileSystem(cluster)
        dfs.write("/in/numbers", list(enumerate([1, 1.0, 2.0, 2])))
        kv = DistributedKVStore("numbers", cluster)
        kv.put(1, "v1")
        kv.put(2, "v2")
        job = IndexJobConf(f"numbers-{mode}")
        job.set_input_paths("/in/numbers").set_output_path(f"/out/numbers-{mode}")
        job.add_head_index_operator(EchoOperator("echo").add_index(IndexAccessor(kv)))
        job.set_mapper(FnMapper(lambda k, v: [(k, v)], "ident"))
        job.set_reducer(FnReducer(lambda k, vs: [(k, vs[0])], "first"), 1)
        result = EFindRunner(cluster, dfs).run(
            job, mode="forced", forced_strategy=strategy
        )
        answers[mode] = sorted(result.output)
    assert all(answer == answers["Base"] for answer in answers.values()), answers


def test_keys_equal_in_python_share_one_answer_with_reuse_and_build():
    """Keys 1, 1.0 and True are equal, and so are (1,) and (1.0,): the
    LRU, the reuse store, the build buckets and the KV store's placement
    must each treat a group as one key. Every forced strategy answers
    every value alike, on a cold run and on a warm one that hits the
    reuse store and the half-built index."""
    values = [1, 1.0, True, (1,), (1.0,)] * 2
    expected = [("scalar",)] * 3 + [("tuple",)] * 2
    for mode, strategy in STRATEGIES.items():
        cluster = Cluster(num_nodes=4, map_slots_per_node=2, reduce_slots_per_node=2)
        dfs = DistributedFileSystem(cluster)
        dfs.write("/in/ones", list(enumerate(values)))
        kv = DistributedKVStore("ones", cluster)
        kv.put(1, "scalar")
        kv.put((1,), "tuple")
        runner = EFindRunner(
            cluster, dfs, reuse=ReuseStore(),
            build=BuildSession({"ones": kv}, fraction=0.5),
        )
        for run in ("cold", "warm"):
            job = IndexJobConf(f"ones-{mode}-{run}")
            job.set_input_paths("/in/ones").set_output_path(f"/out/ones-{mode}-{run}")
            job.add_head_index_operator(
                EchoOperator("echo").add_index(IndexAccessor(kv))
            )
            job.set_mapper(FnMapper(lambda k, v: [(k, v)], "ident"))
            job.set_reducer(FnReducer(lambda k, vs: [(k, vs[0])], "first"), 1)
            result = runner.run(job, mode="forced", forced_strategy=strategy)
            answers = [answer for _, (_, answer) in sorted(result.output)]
            assert answers == expected * 2, (mode, run, answers)
        assert result.counters.get("reuse", "probes") > 0, mode
        assert result.counters.get("build", "indexed_lookups") > 0, mode
