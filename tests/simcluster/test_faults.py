"""Unit tests for the fault-injection and retry layer."""

import pytest

from repro.common.errors import (
    DataFlowError,
    IndexLookupError,
    SchedulingError,
    TransientLookupError,
)
from repro.indices.base import MappingIndex
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer, TaskContext
from repro.mapreduce.jobconf import JobConf
from repro.mapreduce.runtime import JobRunner
from repro.mapreduce.scheduler import SlotScheduler
from repro.simcluster.faults import (
    FaultPlan,
    PartitionOutage,
    RetryPolicy,
    TaskCrash,
)


def find_key(plan, index_name, predicate, limit=5000):
    """First key k0..k4999 whose per-attempt fault verdicts satisfy
    ``predicate(verdicts)`` -- the deterministic draws make this a
    stable choice, not a flaky search."""
    for i in range(limit):
        key = f"k{i}"
        verdicts = tuple(
            plan.lookup_fault(index_name, key, a) for a in range(4)
        )
        if predicate(verdicts):
            return key
    raise AssertionError("no key with the wanted fault pattern in range")


def make_ctx(cluster, task_id="t"):
    return TaskContext(cluster.nodes[0], cluster.time_model, task_id=task_id)


# ----------------------------------------------------------------------
# FaultPlan determinism
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_lookup_fault_deterministic(self):
        a = FaultPlan(seed=7, lookup_failure_rate=0.3, lookup_timeout_rate=0.2)
        b = FaultPlan(seed=7, lookup_failure_rate=0.3, lookup_timeout_rate=0.2)
        verdicts = [a.lookup_fault("idx", f"k{i}", 0) for i in range(200)]
        assert verdicts == [b.lookup_fault("idx", f"k{i}", 0) for i in range(200)]
        assert "error" in verdicts and "timeout" in verdicts and None in verdicts

    def test_order_independent(self):
        plan = FaultPlan(seed=7, lookup_failure_rate=0.3)
        forward = [plan.lookup_fault("idx", f"k{i}", 0) for i in range(50)]
        backward = [
            plan.lookup_fault("idx", f"k{i}", 0) for i in reversed(range(50))
        ]
        assert forward == list(reversed(backward))

    def test_seed_and_attempt_redraw(self):
        base = FaultPlan(seed=1, lookup_failure_rate=0.5)
        other = FaultPlan(seed=2, lookup_failure_rate=0.5)
        v_base = [base.lookup_fault("idx", f"k{i}", 0) for i in range(100)]
        assert v_base != [other.lookup_fault("idx", f"k{i}", 0) for i in range(100)]
        assert v_base != [base.lookup_fault("idx", f"k{i}", 1) for i in range(100)]

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(lookup_failure_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(lookup_failure_rate=0.6, lookup_timeout_rate=0.5)

    def test_straggler_factors(self):
        plan = FaultPlan(straggler_factors={"node01": 2.5})
        assert plan.straggler_factor("node01") == 2.5
        assert plan.straggler_factor("node00") == 1.0
        with pytest.raises(ValueError):
            FaultPlan(straggler_factors={"node01": 0.5})

    def test_partition_outage_window(self):
        plan = FaultPlan(
            partition_outages=[PartitionOutage("idx", 3, first_probe=0, last_probe=1)]
        )
        # Two probes down, then the window lifts.
        assert plan.partition_probe("idx", 3) is True
        assert plan.partition_probe("idx", 3) is True
        assert plan.partition_probe("idx", 3) is False
        # Other partitions and indices are untouched.
        assert plan.partition_probe("idx", 2) is False
        assert plan.partition_probe("other", 3) is False

    def test_permanent_outage(self):
        plan = FaultPlan(partition_outages=[PartitionOutage("idx", 0)])
        assert all(plan.partition_probe("idx", 0) for _ in range(10))

    def test_task_crash_attempts(self):
        plan = FaultPlan(task_crashes=[TaskCrash("wc-m0001", 25, attempts=2)])
        assert plan.task_crash("wc-m0001", 0) == 25
        assert plan.task_crash("wc-m0001", 1) == 25
        assert plan.task_crash("wc-m0001", 2) is None
        assert plan.task_crash("wc-m0002", 0) is None


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff=0.1, backoff_multiplier=2.0, max_backoff=0.5)
        assert policy.nominal_backoff(1) == pytest.approx(0.1)
        assert policy.nominal_backoff(2) == pytest.approx(0.2)
        assert policy.nominal_backoff(3) == pytest.approx(0.4)
        assert policy.nominal_backoff(4) == pytest.approx(0.5)

    def test_jittered_backoff_bounded_and_deterministic(self):
        policy = RetryPolicy(base_backoff=0.1, jitter=0.5)
        plan = FaultPlan(seed=11)
        times = [plan.backoff_time(policy, "idx", f"k{i}", 1) for i in range(100)]
        assert times == [
            plan.backoff_time(policy, "idx", f"k{i}", 1) for i in range(100)
        ]
        assert all(0.05 <= t <= 0.15 for t in times)
        assert len(set(times)) > 1

    def test_zero_jitter_is_nominal(self):
        policy = RetryPolicy(base_backoff=0.1, jitter=0.0)
        assert FaultPlan().backoff_time(policy, "idx", "k", 2) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=-1.0)


# ----------------------------------------------------------------------
# IndexService retry loop
# ----------------------------------------------------------------------
class TestIndexRetry:
    POLICY = RetryPolicy(
        max_attempts=4, base_backoff=0.01, max_backoff=0.1, attempt_timeout=0.05
    )

    def make_index(self, plan, keys):
        index = MappingIndex("m", {k: f"v-{k}" for k in keys}, service_time=1e-3)
        return index.set_fault_plan(plan, self.POLICY)

    def test_no_plan_is_single_attempt(self, cluster):
        index = MappingIndex("m", {"a": 1})
        ctx = make_ctx(cluster)
        assert index.lookup("a", ctx) == [1]
        assert ctx.charged_time == 0.0
        assert ctx.counters.get("fault", "lookups_retried") == 0
        assert index.lookups_served == 1

    def test_retry_then_succeed(self, cluster):
        plan = FaultPlan(seed=3, lookup_failure_rate=0.5)
        key = find_key(
            plan, "m", lambda v: v[0] == "error" and v[1] is None
        )
        index = self.make_index(plan, [key])
        ctx = make_ctx(cluster)
        assert index.lookup(key, ctx) == [f"v-{key}"]
        assert ctx.counters.get("fault", "lookups_retried") == 1
        assert ctx.counters.get("fault", "lookups_failed") == 0
        assert index.lookups_served == 1
        # Failed attempt's service time + the backoff before the retry.
        expected = index.service_time() + plan.backoff_time(
            self.POLICY, "m", key, 1
        )
        assert ctx.charged_time == pytest.approx(expected)

    def test_timeout_charges_attempt_timeout(self, cluster):
        plan = FaultPlan(seed=3, lookup_timeout_rate=0.5)
        key = find_key(
            plan, "m", lambda v: v[0] == "timeout" and v[1] is None
        )
        index = self.make_index(plan, [key])
        ctx = make_ctx(cluster)
        assert index.lookup(key, ctx) == [f"v-{key}"]
        expected = self.POLICY.attempt_timeout + plan.backoff_time(
            self.POLICY, "m", key, 1
        )
        assert ctx.charged_time == pytest.approx(expected)

    def test_exhausted_retries_terminal(self, cluster):
        plan = FaultPlan(seed=3, lookup_failure_rate=1.0)
        index = self.make_index(plan, ["k"])
        ctx = make_ctx(cluster)
        with pytest.raises(IndexLookupError) as err:
            index.lookup("k", ctx)
        assert not isinstance(err.value, TransientLookupError)
        assert "after 4 attempts" in str(err.value)
        assert ctx.counters.get("fault", "lookups_retried") == 3
        assert ctx.counters.get("fault", "lookups_failed") == 1

    def test_data_errors_not_retried(self, cluster):
        plan = FaultPlan(seed=3)  # plan attached, no faults injected
        index = MappingIndex("m", {}, strict=True).set_fault_plan(plan, self.POLICY)
        ctx = make_ctx(cluster)
        with pytest.raises(IndexLookupError):
            index.lookup("missing", ctx)
        assert ctx.counters.get("fault", "lookups_retried") == 0

    def test_reset_accounting_clears_fault_counters(self, cluster):
        plan = FaultPlan(seed=3, lookup_failure_rate=1.0)
        index = self.make_index(plan, ["k"])
        # Retries and failures are the job's counters; the index keeps
        # only its serve count, which a faulted lookup still bumps.
        with pytest.raises(IndexLookupError):
            index.lookup("k", make_ctx(cluster))
        assert index.lookups_served == 1
        index.reset_accounting()
        assert index.lookups_served == 0


# ----------------------------------------------------------------------
# Replica failover in the KV store
# ----------------------------------------------------------------------
class TestKVStoreFailover:
    POLICY = RetryPolicy(max_attempts=4, base_backoff=0.01, attempt_timeout=0.05)

    def loaded_store(self, cluster, plan):
        kv = DistributedKVStore("kv", cluster, num_partitions=8, replication=2)
        for i in range(64):
            kv.put(f"k{i}", i)
        return kv.set_fault_plan(plan, self.POLICY)

    def test_dead_replica_fails_over(self, paper_cluster, cluster):
        plan = FaultPlan(dead_hosts=("node00",))
        kv = self.loaded_store(paper_cluster, plan)
        ctx = make_ctx(cluster)
        for i in range(64):
            assert kv.lookup(f"k{i}", ctx) == [i]
        assert ctx.counters.get("fault", "failovers") > 0
        assert ctx.counters.get("fault", "lookups_failed") == 0
        assert kv.lookups_served == 64

    def test_dead_hosts_dropped_from_hosts_for_key(self, paper_cluster):
        plan = FaultPlan(dead_hosts=("node00",))
        kv = self.loaded_store(paper_cluster, plan)
        for i in range(64):
            hosts = kv.hosts_for_key(f"k{i}")
            assert "node00" not in hosts
            assert hosts, "replication=2 must leave a live replica"

    def test_all_replicas_dead_is_terminal(self, cluster):
        # 4-node cluster, replication=2: killing both replicas of some
        # partition makes its keys unreachable even after retries.
        kv = DistributedKVStore("kv", cluster, num_partitions=4, replication=2)
        kv.put("k0", 0)
        partition = kv.partition_scheme.partition_of("k0")
        replicas = kv.partition_scheme.locations(partition)
        kv.set_fault_plan(FaultPlan(dead_hosts=tuple(replicas)), self.POLICY)
        ctx = make_ctx(cluster)
        with pytest.raises(IndexLookupError):
            kv.lookup("k0", ctx)
        assert ctx.counters.get("fault", "lookups_failed") == 1

    def test_outage_window_recovers_via_retries(self, paper_cluster, cluster):
        kv = DistributedKVStore("kv", paper_cluster, num_partitions=4)
        kv.put("k0", 0)
        partition = kv.partition_scheme.partition_of("k0")
        plan = FaultPlan(
            partition_outages=[
                PartitionOutage("kv", partition, first_probe=0, last_probe=1)
            ]
        )
        kv.set_fault_plan(plan, self.POLICY)
        ctx = make_ctx(cluster)
        # Two probes hit the window, the third succeeds.
        assert kv.lookup("k0", ctx) == [0]
        assert ctx.counters.get("fault", "lookups_retried") == 2


# ----------------------------------------------------------------------
# Scheduler fault awareness
# ----------------------------------------------------------------------
class TestSchedulerFaults:
    def test_down_hosts_removed_from_pool(self, cluster):
        sched = SlotScheduler(cluster, "map", down_hosts=("node00",))
        assert sched.num_slots == cluster.total_map_slots - 2
        assert all(s.host != "node00" for s in sched.slots)

    def test_all_hosts_down_rejected(self, cluster):
        hosts = [n.hostname for n in cluster.nodes]
        with pytest.raises(SchedulingError):
            SlotScheduler(cluster, "map", down_hosts=hosts)

    def test_dead_allowed_hosts_degrade_to_live_pool(self, cluster):
        sched = SlotScheduler(cluster, "map", down_hosts=("node00",))
        slot = sched.acquire(allowed_hosts=["node00"])
        assert slot.host != "node00"

    def test_live_allowed_hosts_still_hard(self, cluster):
        sched = SlotScheduler(cluster, "map", down_hosts=("node00",))
        with pytest.raises(SchedulingError):
            sched.acquire(allowed_hosts=["nodeXX"])

    def test_avoid_hosts_soft(self, cluster):
        sched = SlotScheduler(cluster, "map")
        slot = sched.acquire(avoid_hosts=["node00"])
        assert slot.host != "node00"
        all_hosts = [n.hostname for n in cluster.nodes]
        # Avoiding everything would leave no candidates: ignored.
        assert sched.acquire(avoid_hosts=all_hosts) is not None


# ----------------------------------------------------------------------
# Task crashes and re-execution
# ----------------------------------------------------------------------
class TestTaskRetry:
    def wordcount(self, **overrides):
        conf = JobConf(
            name="wc",
            input_paths=["/in"],
            output_path="/out",
            map_chain=[FnMapper(lambda k, v: [(w, 1) for w in v.split()])],
            reducer=FnReducer(lambda k, vs: [(k, sum(vs))]),
            num_reduce_tasks=3,
        )
        for key, value in overrides.items():
            setattr(conf, key, value)
        return conf

    @pytest.fixture
    def inputs(self, dfs):
        dfs.write("/in", [(i, f"alpha beta{i % 7} pad{i}") for i in range(1500)])

    def test_crashed_map_task_retried(self, cluster, dfs, inputs):
        clean = JobRunner(cluster, dfs).run(self.wordcount())
        plan = FaultPlan(task_crashes=[TaskCrash("wc-m0000", 10)])
        res = JobRunner(cluster, dfs, fault_plan=plan).run(self.wordcount())
        assert sorted(res.output) == sorted(clean.output)
        assert res.counters.get("fault", "tasks_retried") == 1
        # The crashed attempt may hide in slot slack, but can never make
        # the job faster.
        assert res.sim_time >= clean.sim_time
        first = next(r for r in res.map_runs if r.task_id == "wc-m0000")
        assert first.duration > 0

    def test_crashed_reduce_task_retried(self, cluster, dfs, inputs):
        clean = JobRunner(cluster, dfs).run(self.wordcount())
        plan = FaultPlan(task_crashes=[TaskCrash("wc-r0001", 5)])
        res = JobRunner(cluster, dfs, fault_plan=plan).run(self.wordcount())
        assert sorted(res.output) == sorted(clean.output)
        assert res.counters.get("fault", "tasks_retried") == 1
        assert res.sim_time >= clean.sim_time

    def test_persistent_crash_fails_job(self, cluster, dfs, inputs):
        plan = FaultPlan(task_crashes=[TaskCrash("wc-m0000", 10, attempts=99)])
        with pytest.raises(DataFlowError):
            JobRunner(cluster, dfs, fault_plan=plan).run(self.wordcount())

    def test_straggler_slows_job(self, cluster, dfs, inputs):
        clean = JobRunner(cluster, dfs).run(self.wordcount())
        plan = FaultPlan(straggler_factors={"node00": 4.0})
        res = JobRunner(cluster, dfs, fault_plan=plan).run(self.wordcount())
        assert sorted(res.output) == sorted(clean.output)
        assert res.sim_time > clean.sim_time

    def test_dead_host_runs_nothing(self, cluster, dfs, inputs):
        plan = FaultPlan(dead_hosts=("node01",))
        res = JobRunner(cluster, dfs, fault_plan=plan).run(self.wordcount())
        hosts = {r.node_host for r in res.map_runs} | {
            r.node_host for r in res.reduce_runs
        }
        assert "node01" not in hosts

    def test_no_plan_unchanged(self, cluster, dfs, inputs):
        a = JobRunner(cluster, dfs).run(self.wordcount())
        b = JobRunner(cluster, dfs, fault_plan=None).run(self.wordcount())
        assert a.sim_time == b.sim_time
        assert sorted(a.output) == sorted(b.output)
