"""Tests for the benchmark harness itself."""

import pytest

from repro.bench.baseline import serialize_row
from repro.bench.harness import (
    ExperimentRow,
    _equivalent,
    bench_cluster,
    format_counter_table,
    format_table,
    run_all_modes,
    speedup,
)
from repro.core.accessor import IndexAccessor
from repro.core.ejobconf import IndexJobConf
from repro.core.reuse import ReuseStore
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.build import BuildSession
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer
from repro.mapreduce.counters import FEATURE_COUNTERS
from repro.simcluster.faults import FaultPlan, TaskCrash
from tests.conftest import UserCityOperator


class TestBenchCluster:
    def test_paper_dimensions(self):
        cluster = bench_cluster()
        assert cluster.num_nodes == 12

    def test_scaled_overheads(self):
        tm = bench_cluster().time_model
        assert tm.job_startup_time < 3.0
        assert tm.task_startup_time < 0.15

    def test_latency_knob(self):
        assert bench_cluster(network_latency=2e-3).time_model.network_latency == 2e-3


class TestEquivalence:
    def test_exact_match(self):
        assert _equivalent([("a", 1)], [("a", 1)])

    def test_float_tolerance(self):
        assert _equivalent(1.0000000001, 1.0)
        assert not _equivalent(1.1, 1.0)

    def test_nested(self):
        assert _equivalent(("k", (1.0, "x")), ("k", (1.0000000001, "x")))

    def test_length_mismatch(self):
        assert not _equivalent([1], [1, 2])


class TestFormatTable:
    def test_renders_all_modes_present(self):
        rows = [ExperimentRow("x", {"Base": 2.0, "Cache": 1.0})]
        table = format_table("T", rows, modes=("Base", "Cache", "Idxloc"))
        assert "Base" in table and "Cache" in table
        assert "Idxloc" not in table  # absent everywhere -> dropped

    def test_missing_cell_shows_na(self):
        rows = [
            ExperimentRow("a", {"Base": 2.0, "Cache": 1.0}),
            ExperimentRow("b", {"Base": 3.0}),
        ]
        table = format_table("T", rows, modes=("Base", "Cache"))
        assert "n/a" in table

    def test_speedup_helper(self):
        row = ExperimentRow("x", {"Base": 4.0, "Cache": 2.0})
        assert speedup(row, "Base", "Cache") == 2.0
        assert row.speedup_over_base("Cache") == 2.0


@pytest.fixture
def env():
    cluster = bench_cluster(num_nodes=4)
    dfs = DistributedFileSystem(cluster, block_size=8 * 1024)
    dfs.write(
        "/in", [(i, (f"user{i % 40:04d}", "x" * 30)) for i in range(2000)]
    )
    kv = DistributedKVStore("kv", cluster, service_time=2e-3)
    for u in range(40):
        kv.put_unique(f"user{u:04d}", f"city{u % 5}")

    def factory(name):
        job = IndexJobConf(name)
        job.set_input_paths("/in").set_output_path(f"/out/{name}")
        job.add_head_index_operator(
            UserCityOperator("op").add_index(IndexAccessor(kv))
        )
        job.set_mapper(FnMapper(lambda k, v: [(k, v)], "i"))
        job.set_reducer(
            FnReducer(lambda k, vs: [(k, len(vs))], "c"), num_reduce_tasks=4
        )
        return job

    return cluster, dfs, factory


class TestRunAllModes:
    def test_runs_requested_modes(self, env):
        cluster, dfs, factory = env
        row = run_all_modes(
            cluster, dfs, factory, modes=("Base", "Cache"), label="t"
        )
        assert set(row.times) == {"Base", "Cache"}
        assert all(t > 0 for t in row.times.values())

    def test_skip_modes(self, env):
        cluster, dfs, factory = env
        row = run_all_modes(
            cluster, dfs, factory, modes=("Base", "Idxloc"), skip=("Idxloc",)
        )
        assert set(row.times) == {"Base"}

    def test_detects_divergent_outputs(self, env):
        cluster, dfs, factory = env
        calls = []

        def bad_factory(name):
            job = factory(name)
            if calls:  # second variant gets a different reducer
                job.set_reducer(
                    FnReducer(lambda k, vs: [(k, 0)], "zero"), num_reduce_tasks=4
                )
            calls.append(name)
            return job

        with pytest.raises(AssertionError):
            run_all_modes(cluster, dfs, bad_factory, modes=("Base", "Cache"))

    def test_optimized_profiles_then_plans(self, env):
        cluster, dfs, factory = env
        row = run_all_modes(
            cluster, dfs, factory, modes=("Base", "Optimized"), label="t2"
        )
        assert row.details["Optimized"].plan is not None


def _slow_host(cluster):
    return FaultPlan(seed=7, straggler_factors={cluster.nodes[1].hostname: 4.0})


#: FEATURE_COUNTERS key -> (EFindRunner keywords that turn the feature
#: on, every counter key a row run with them records). A feature added
#: to the table without a recipe here fails the test below.
FEATURE_ON = {
    "faults": (
        lambda cluster, kv: {
            "fault_plan": FaultPlan(task_crashes=[TaskCrash("t-cache/main-m0000", 5)])
        },
        {"faults"},
    ),
    "batches": (lambda cluster, kv: {"batch_size": 8}, {"batches"}),
    "reuse": (lambda cluster, kv: {"reuse": ReuseStore()}, {"reuse"}),
    "spec": (
        lambda cluster, kv: {
            "fault_plan": _slow_host(cluster),
            "speculation_factor": 1.5,
        },
        {"spec"},
    ),
    "route": (
        lambda cluster, kv: {"route_policy": "least-loaded", "batch_size": 8},
        {"route", "batches"},
    ),
    "build": (
        lambda cluster, kv: {"build": BuildSession({kv.name: kv})},
        {"build"},
    ),
}


class TestFeatureCounters:
    """One table drives the row, the baseline JSON and the CLI table."""

    @pytest.mark.parametrize("key", FEATURE_COUNTERS)
    def test_feature_on_reaches_row_json_and_table(self, env, key):
        cluster, dfs, factory = env
        kv = factory("probe").head_operators[0].accessors[0].index
        make_kwargs, emitted = FEATURE_ON[key]
        row = run_all_modes(
            cluster, dfs, factory, modes=("Cache",), label="t",
            **make_kwargs(cluster, kv),
        )
        assert row.counters[key]["Cache"]
        doc = serialize_row(row)
        assert set(doc) - {"label", "times"} == emitted
        assert doc[key] == {"Cache": row.counters[key]["Cache"]}
        lines = format_counter_table("T", [row], key, modes=("Cache",)).splitlines()
        columns = list(FEATURE_COUNTERS[key].columns)
        assert [c.strip() for c in lines[2].split("|")] == ["config", "mode"] + columns
        assert len(lines[4].split("|")) == 2 + len(columns)

    def test_feature_off_prints_zeros(self, env):
        cluster, dfs, factory = env
        row = run_all_modes(cluster, dfs, factory, modes=("Base",), label="t")
        assert set(serialize_row(row)) == {"label", "times"}
        for key in FEATURE_COUNTERS:
            (line,) = format_counter_table("T", [row], key).splitlines()[4:-1]
            assert {c.strip() for c in line.split("|")[2:]} == {"0"}

    def test_typoed_feature_is_not_silently_dropped(self, env):
        cluster, dfs, factory = env
        with pytest.raises(TypeError, match="batch_sise"):
            run_all_modes(cluster, dfs, factory, modes=("Base",), batch_sise=8)
