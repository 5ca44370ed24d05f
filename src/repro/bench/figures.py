"""The paper's experiments as importable functions.

Each ``run_*`` function builds its workload, runs the solution variants,
and returns the :class:`ExperimentRow` list (plus any extras) that the
corresponding figure reports. The pytest-benchmark wrappers under
``benchmarks/`` call these and assert the paper's qualitative shapes;
``python -m repro.bench`` runs them standalone.

Workload scales and calibrations are documented in DESIGN.md §5 and
EXPERIMENTS.md ("Known deviations").
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bench.harness import (
    ExperimentRow,
    _equivalent,
    bench_cluster,
    run_all_modes,
)
from repro.common.sizing import sizeof
from repro.core.costmodel import Strategy
from repro.core.reuse import ReuseStore
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.simcluster.faults import FaultPlan, RetryPolicy
from repro.workloads import hzknnj, knn, osm, synthetic, tpch, weblog

SIX_MODES = ("Base", "Cache", "Repart", "Idxloc", "Optimized", "Dynamic")


# ----------------------------------------------------------------------
# Figure 11(a) -- LOG
# ----------------------------------------------------------------------
FIG11A_DELAYS_MS = (0.0, 1.0, 3.0, 5.0)
FIG11A_MODES = ("Base", "Cache", "Repart", "Optimized", "Dynamic")


def run_fig11a(delays: Tuple[float, ...] = FIG11A_DELAYS_MS) -> List[ExperimentRow]:
    """``delays`` selects the x-axis points; the CI smoke run traces a
    single point (``fig11a-small``) instead of the full sweep."""
    cluster = bench_cluster()
    # ~70 splits over 24 map slots: three map waves, as the adaptive
    # optimizer's first-round statistics collection requires.
    dfs = DistributedFileSystem(cluster, block_size=16 * 1024)
    # More IPs than the 1024-entry lookup cache can hold per node, so
    # the per-node cache leaves cross-machine redundancy on the table --
    # the regime where re-partitioning pulls ahead (paper Section 5.2).
    cfg = weblog.LogConfig(num_events=24_000, num_ips=3_000, num_urls=1_200)
    paths = weblog.generate(dfs, "/in/log", cfg)
    rows = []
    for delay_ms in delays:
        geo = weblog.build_geo_service(cfg, extra_delay=delay_ms * 1e-3)

        def job_factory(name, geo=geo):
            return weblog.make_topk_job(name, paths, f"/out/{name}", geo, k=10)

        rows.append(
            run_all_modes(
                cluster,
                dfs,
                job_factory,
                extra_job_targets=("head0",),
                modes=FIG11A_MODES,
                label=f"+{delay_ms:g}ms",
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 11(b) -- TPC-H Q3
# ----------------------------------------------------------------------
def run_fig11b() -> List[ExperimentRow]:
    cluster = bench_cluster()
    # ~65 splits over 24 map slots: the first map wave covers about a
    # third of the input, leaving enough remaining work for the dynamic
    # optimizer's plan change to pay off (paper Section 5.3).
    dfs = DistributedFileSystem(cluster, block_size=12 * 1024)
    data = tpch.generate(tpch.TpchConfig(sf=0.002))
    tpch.write_lineitem(dfs, "/in/lineitem", data)
    indexes = tpch.build_indexes(cluster, data, service_time=6e-3)

    def job_factory(name):
        indexes.reset_accounting()
        return tpch.make_q3_job(name, "/in/lineitem", f"/out/{name}", indexes)

    return [
        run_all_modes(
            cluster,
            dfs,
            job_factory,
            extra_job_targets=("head0",),  # the Orders join, as in the paper
            modes=SIX_MODES,
            label="Q3",
        )
    ]


# ----------------------------------------------------------------------
# Figure 11(c) -- TPC-H Q9
# ----------------------------------------------------------------------
def run_fig11c() -> List[ExperimentRow]:
    cluster = bench_cluster()
    dfs = DistributedFileSystem(cluster, block_size=24 * 1024)
    # supplier_scale=100 keeps SF10's defining property after the
    # downscale: far more suppliers than lookup-cache entries (here a
    # 256-entry cache vs ~2000 suppliers), so Q9's unclustered supplier
    # probes thrash the cache exactly as at full scale.
    data = tpch.generate(tpch.TpchConfig(sf=0.002, supplier_scale=100))
    tpch.write_lineitem(dfs, "/in/lineitem", data)
    indexes = tpch.build_indexes(cluster, data, service_time=1.2e-3)
    # The Supplier index takes a lookup for *every* LineItem row -- by
    # far the hottest index in Q9 -- so its effective per-lookup service
    # time is the highest (queueing on its partitions at SF10).
    indexes.supplier.set_service_time(15e-3)

    def job_factory(name):
        return tpch.make_q9_job(name, "/in/lineitem", f"/out/{name}", indexes)

    return [
        run_all_modes(
            cluster,
            dfs,
            job_factory,
            extra_job_targets=("head0",),  # the Supplier join, as in the paper
            modes=SIX_MODES,
            label="Q9",
            cache_capacity=256,
        )
    ]


# ----------------------------------------------------------------------
# Figures 11(d,e) -- DUP10
# ----------------------------------------------------------------------
def run_fig11d() -> List[ExperimentRow]:
    cluster = bench_cluster()
    dfs = DistributedFileSystem(cluster, block_size=24 * 1024)
    data = tpch.generate(tpch.TpchConfig(sf=0.001))
    tpch.write_lineitem(dfs, "/in/lineitem10", data, dup_factor=10)
    indexes = tpch.build_indexes(cluster, data, service_time=6e-3)

    def job_factory(name):
        return tpch.make_q3_job(name, "/in/lineitem10", f"/out/{name}", indexes)

    return [
        run_all_modes(
            cluster,
            dfs,
            job_factory,
            extra_job_targets=("head0",),
            modes=SIX_MODES,
            label="DUP10 Q3",
        )
    ]


def run_fig11e() -> List[ExperimentRow]:
    cluster = bench_cluster()
    dfs = DistributedFileSystem(cluster, block_size=24 * 1024)
    data = tpch.generate(tpch.TpchConfig(sf=0.001, supplier_scale=100))
    tpch.write_lineitem(dfs, "/in/lineitem10", data, dup_factor=10)
    indexes = tpch.build_indexes(cluster, data, service_time=1.2e-3)
    indexes.supplier.set_service_time(15e-3)

    def job_factory(name):
        return tpch.make_q9_job(name, "/in/lineitem10", f"/out/{name}", indexes)

    return [
        run_all_modes(
            cluster,
            dfs,
            job_factory,
            extra_job_targets=("head0",),
            modes=SIX_MODES,
            label="DUP10 Q9",
            cache_capacity=256,
        )
    ]


# ----------------------------------------------------------------------
# Figure 11(f) -- Synthetic, result-size sweep
# ----------------------------------------------------------------------
FIG11F_RESULT_SIZES = (10, 1024, 8192, 30720)


def run_fig11f(
    sizes: Tuple[int, ...] = FIG11F_RESULT_SIZES
) -> List[ExperimentRow]:
    """``sizes`` selects the x-axis points; the CI smoke / baseline run
    uses a single point (``fig11f-small``) instead of the full sweep."""
    cluster = bench_cluster()
    dfs = DistributedFileSystem(cluster, block_size=24 * 1024)
    rows = []
    for result_size in sizes:
        cfg = synthetic.SyntheticConfig(
            num_records=24_000,
            num_distinct_keys=8_000,
            record_value_size=96,
            result_size=result_size,
        )
        synthetic.generate(dfs, "/in/syn", cfg)
        index = synthetic.build_index(cluster, cfg, service_time=1e-3)

        def job_factory(name, index=index):
            return synthetic.make_join_job(name, "/in/syn", f"/out/{name}", index)

        label = (
            f"{result_size}B" if result_size < 1024 else f"{result_size // 1024}KB"
        )
        rows.append(
            run_all_modes(
                cluster,
                dfs,
                job_factory,
                extra_job_targets=("head0",),
                modes=SIX_MODES,
                label=label,
                forced_boundary="pre",  # never materialise the big results
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 12 -- lookup latency micro-benchmark
# ----------------------------------------------------------------------
FIG12_SIZES = (10, 100, 1024, 10_240, 30_720)


def run_fig12() -> List[Tuple[int, float, float]]:
    """Rows of (result_size, local_ms, remote_ms)."""
    cluster = bench_cluster()
    tm = cluster.time_model
    rows = []
    for size in FIG12_SIZES:
        cfg = synthetic.SyntheticConfig(
            num_records=64, num_distinct_keys=64, result_size=size
        )
        index = synthetic.build_index(cluster, cfg, service_time=1e-3)
        local = remote = 0.0
        for key in range(cfg.num_distinct_keys):
            values = index.lookup(key)
            tj = index.service_time()
            local += tm.local_lookup_time(tj)
            remote += tm.remote_lookup_time(sizeof(key), sizeof(tuple(values)), tj)
        n = cfg.num_distinct_keys
        rows.append((size, local / n * 1e3, remote / n * 1e3))
    return rows


# ----------------------------------------------------------------------
# Figure 13 -- kNN join vs H-zkNNJ
# ----------------------------------------------------------------------
def run_fig13() -> List[ExperimentRow]:
    # The kNN-join cluster models per-request network latency: every
    # remote R*-tree probe pays an RTT on a loaded network -- the cost
    # that co-locating map tasks with index partitions eliminates (the
    # reason index locality is the winning plan in the paper's Fig. 13).
    cluster = bench_cluster(network_latency=2e-3)
    dfs = DistributedFileSystem(cluster, block_size=24 * 1024)
    a_points = osm.generate_points(osm.OsmConfig(num_points=20_000, seed=71), "A")
    b_points = osm.generate_points(osm.OsmConfig(num_points=20_000, seed=72), "B")
    osm.write_points(dfs, "/in/osm-a", a_points)
    osm.write_points(dfs, "/in/osm-b", b_points)

    cfg = knn.KnnConfig(k=10, grid_x=4, grid_y=8, overlap=0.1)
    index = knn.build_spatial_index(cluster, b_points, cfg, service_time=1.5e-3)

    def job_factory(name):
        return knn.make_knnj_job(name, "/in/osm-a", f"/out/{name}", index)

    row = run_all_modes(
        cluster,
        dfs,
        job_factory,
        extra_job_targets=("head0",),
        modes=SIX_MODES,
        label="kNNJ k=10",
    )

    hz = hzknnj.run_hzknnj(
        cluster,
        dfs,
        "/in/osm-a",
        "/in/osm-b",
        hzknnj.HzknnjConfig(k=10, alpha=2, num_partitions=16),
    )
    row.times["H-zkNNJ"] = hz.sim_time
    return [row]


# ----------------------------------------------------------------------
# Section 5.3 -- adaptive optimization anatomy
# ----------------------------------------------------------------------
SEC53_MODES = ("Base", "Optimized", "Dynamic")


def run_sec53() -> List[ExperimentRow]:
    rows = []
    for dup, label in ((1, "Q9 (x1)"), (5, "Q9 (x5)")):
        cluster = bench_cluster()
        # small blocks -> several map waves even at x1, so the
        # statistics phase is a first *round*, not the whole map phase
        dfs = DistributedFileSystem(cluster, block_size=8 * 1024)
        data = tpch.generate(tpch.TpchConfig(sf=0.001, supplier_scale=100))
        tpch.write_lineitem(dfs, "/in/li", data, dup_factor=dup)
        indexes = tpch.build_indexes(cluster, data, service_time=1.2e-3)
        indexes.supplier.set_service_time(15e-3)

        def job_factory(name):
            return tpch.make_q9_job(name, "/in/li", f"/out/{name}", indexes)

        rows.append(
            run_all_modes(
                cluster,
                dfs,
                job_factory,
                extra_job_targets=("head0",),
                modes=SEC53_MODES,
                label=label,
                cache_capacity=256,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Fault recovery -- runtime vs lookup-failure rate per strategy
# ----------------------------------------------------------------------
FAULT_RATES = (0.0, 0.01, 0.04)
FAULT_MODES = ("Base", "Cache", "Repart", "Idxloc")

#: Retry knobs scaled to the benchmark cluster (the paper's Hadoop
#: defaults would be seconds; our simulated jobs run for a few seconds
#: total, so backoffs/timeouts scale down with the other fixed costs).
FAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=4,
    base_backoff=5e-3,
    backoff_multiplier=2.0,
    max_backoff=0.1,
    jitter=0.5,
    attempt_timeout=20e-3,
)

#: One dead KV replica: the node disappears from the task-slot pool and
#: every index partition it replicates fails over to survivors.
FAULT_DEAD_HOST = "node03"


def run_fault_recovery() -> List[ExperimentRow]:
    """The Fig. 11(b) workload (TPC-H Q3) re-run under injected faults.

    x-axis: per-attempt lookup failure rate (plus half that rate of
    timeouts and one dead KV replica once faults are on). Every variant
    must produce output identical to the fault-free run -- the whole
    point of the retry/failover layer -- while paying for retries,
    backoff, failovers, and the lost node's slots in simulated time.
    """
    rows = []
    for rate in FAULT_RATES:
        cluster = bench_cluster()
        dfs = DistributedFileSystem(cluster, block_size=12 * 1024)
        data = tpch.generate(tpch.TpchConfig(sf=0.002))
        tpch.write_lineitem(dfs, "/in/lineitem", data)
        indexes = tpch.build_indexes(cluster, data, service_time=6e-3)
        plan = None
        if rate > 0.0:
            plan = FaultPlan(
                seed=1729,
                lookup_failure_rate=rate,
                lookup_timeout_rate=rate / 2.0,
                dead_hosts=(FAULT_DEAD_HOST,),
            )
            indexes.set_fault_plan(plan, FAULT_RETRY_POLICY)

        def job_factory(name, indexes=indexes):
            indexes.reset_accounting()
            return tpch.make_q3_job(name, "/in/lineitem", f"/out/{name}", indexes)

        rows.append(
            run_all_modes(
                cluster,
                dfs,
                job_factory,
                extra_job_targets=("head0",),
                modes=FAULT_MODES,
                label=f"{rate:.0%} faults",
                fault_plan=plan,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Cross-job reuse -- repeated Q3 against one ReuseStore
# ----------------------------------------------------------------------
REUSE_Q3_MODES = ("Cache",)

#: Phase labels, in execution order (these are the baseline row labels).
REUSE_Q3_PHASES = ("disabled", "disabled-2", "cold", "warm", "invalidated")


def run_reuse_q3() -> List[ExperimentRow]:
    """TPC-H Q3 run repeatedly against one cross-job ReuseStore.

    Five phases of the same job (forced Cache strategy, overlapping --
    here identical -- key sets), one row each:

    * ``disabled`` / ``disabled-2`` -- no reuse store attached. The
      repeat pins simulation determinism: identical simulated times.
    * ``cold`` -- a fresh :class:`ReuseStore`. Probes are zero-cost
      and every lookup misses the empty store, so the time must equal
      ``disabled`` *exactly* (reuse can never add simulated cost).
    * ``warm`` -- the same store, now holding the previous run's
      results: repeated lookups skip their index fetches entirely, so
      simulated lookup time collapses (the experiment's headline).
    * ``invalidated`` -- the probed indices are mutated first (a
      sentinel put+delete bumps their epochs; contents are unchanged),
      so every store entry is stale: the run must reproduce the
      ``disabled`` timing exactly while counting the stale drops.

    The job startup overhead is scaled down (x0.1 of the default bench
    cluster's) so the figure measures lookup time, not the fixed job
    submission costs that dominate a single small Q3.

    All five phases must produce identical output; the cold/invalidated
    exact-equality contracts are asserted here (and re-asserted with
    the warm-speedup floor by ``benchmarks/test_reuse_q3.py``).
    """
    cluster = bench_cluster(job_startup=0.05)
    dfs = DistributedFileSystem(cluster, block_size=12 * 1024)
    data = tpch.generate(tpch.TpchConfig(sf=0.002))
    tpch.write_lineitem(dfs, "/in/lineitem", data)
    indexes = tpch.build_indexes(cluster, data, service_time=6e-3)
    reuse_store = ReuseStore()

    def run_phase(label, reuse):
        def job_factory(name):
            indexes.reset_accounting()
            return tpch.make_q3_job(name, "/in/lineitem", f"/out/{name}", indexes)

        return run_all_modes(
            cluster,
            dfs,
            job_factory,
            extra_job_targets=("head0",),
            modes=REUSE_Q3_MODES,
            label=label,
            reuse=reuse,
        )

    rows = [
        run_phase("disabled", None),
        run_phase("disabled-2", None),
        run_phase("cold", reuse_store),
        run_phase("warm", reuse_store),
    ]
    # Append-then-delete a sentinel in every dimension index: contents
    # (and fingerprints) end unchanged, but the epoch bumps invalidate
    # every entry the warm store holds.
    for store in indexes.stores():
        store.put(-1, ("reuse-invalidation-sentinel",))
        store.delete(-1)
    rows.append(run_phase("invalidated", reuse_store))

    by_label = {row.label: row for row in rows}
    disabled = by_label["disabled"].times["Cache"]
    for label in ("disabled-2", "cold", "invalidated"):
        if by_label[label].times["Cache"] != disabled:
            raise AssertionError(
                f"reuse-q3 {label!r} changed the simulated time "
                f"({by_label[label].times['Cache']!r} != {disabled!r}); "
                f"reuse must never add simulated cost"
            )
    reference = sorted(by_label["disabled"].details["Cache"].output, key=repr)
    for row in rows[1:]:
        output = sorted(row.details["Cache"].output, key=repr)
        if not _equivalent(output, reference):
            raise AssertionError(
                f"reuse-q3 {row.label!r} produced different output"
            )
    return rows


# ----------------------------------------------------------------------
# In-job index construction -- Q3 while the Orders index is built
# ----------------------------------------------------------------------
BUILD_Q3_MODES = ("Dynamic",)

#: Phase labels, in execution order (baseline row labels).
BUILD_Q3_PHASES = ("prebuilt", "cold", "warm-1", "warm-2", "full")

#: One third of the key-space buckets per job: full coverage after three
#: warming runs (48 buckets, 16 committed per job).
BUILD_Q3_FRACTION = 1.0 / 3.0


def run_build_q3() -> List[ExperimentRow]:
    """TPC-H Q3 run repeatedly while the Orders index is built in-job.

    Five phases of the same adaptive (Dynamic) job, one row each:

    * ``prebuilt`` -- no build session: the Orders index is fully
      available, exactly as every other figure runs it.
    * ``cold`` -- a fresh :class:`BuildSession` over the Orders index at
      0% coverage, build fraction 1/3. Every Orders lookup falls back to
      a scan-assisted access (``scan_multiplier`` x the indexed service
      time) while the map tasks fold a third of the key space into the
      index.
    * ``warm-1`` / ``warm-2`` -- the same session one and two jobs
      later (1/3 and 2/3 coverage): the planner prices the PARTIAL
      hybrid, scans shrink, and simulated lookup+scan time must fall
      strictly from phase to phase.
    * ``full`` -- coverage reached 100% at the end of ``warm-2``; the
      build session is now inert, so the run must reproduce the
      ``prebuilt`` phase *exactly* -- same plan, same simulated time.

    The job startup overhead is scaled down (x0.1 of the default bench
    cluster's) so the figure measures lookup/scan time, not fixed job
    submission costs. All five phases must produce identical output;
    the trajectory and exact-equality contracts are asserted here (and
    re-asserted with the regression floors by
    ``benchmarks/test_build_q3.py``).
    """
    from repro.indices.build import BuildSession

    cluster = bench_cluster(job_startup=0.05)
    dfs = DistributedFileSystem(cluster, block_size=12 * 1024)
    data = tpch.generate(tpch.TpchConfig(sf=0.002))
    tpch.write_lineitem(dfs, "/in/lineitem", data)
    indexes = tpch.build_indexes(cluster, data, service_time=6e-3)
    session = BuildSession(
        {indexes.orders.name: indexes.orders}, fraction=BUILD_Q3_FRACTION
    )

    def run_phase(label, build):
        def job_factory(name):
            indexes.reset_accounting()
            return tpch.make_q3_job(name, "/in/lineitem", f"/out/{name}", indexes)

        return run_all_modes(
            cluster,
            dfs,
            job_factory,
            extra_job_targets=("head0",),
            modes=BUILD_Q3_MODES,
            label=label,
            build=build,
        )

    rows = [run_phase("prebuilt", None)]
    expected_coverage = (0.0, 1 / 3, 2 / 3, 1.0)
    for label, want in zip(BUILD_Q3_PHASES[1:], expected_coverage):
        got = session.coverage(indexes.orders.name)
        if abs(got - want) > 1e-9:
            raise AssertionError(
                f"build-q3 {label!r} expected {want:.0%} Orders coverage "
                f"on entry, found {got:.0%}"
            )
        rows.append(run_phase(label, session))

    by_label = {row.label: row for row in rows}
    trajectory = [by_label[l].times["Dynamic"] for l in BUILD_Q3_PHASES[1:]]
    for earlier, later in zip(trajectory, trajectory[1:]):
        if not earlier > later:
            raise AssertionError(
                f"build-q3 warming must strictly reduce simulated time, "
                f"got {trajectory!r}"
            )
    prebuilt = by_label["prebuilt"].details["Dynamic"]
    full = by_label["full"].details["Dynamic"]
    if full.sim_time != prebuilt.sim_time:
        raise AssertionError(
            f"build-q3 'full' must match 'prebuilt' exactly "
            f"({full.sim_time!r} != {prebuilt.sim_time!r}); a fully "
            f"covered build session must cost nothing"
        )
    if full.plan.describe() != prebuilt.plan.describe():
        raise AssertionError(
            f"build-q3 'full' picked a different plan than 'prebuilt' "
            f"({full.plan.describe()} != {prebuilt.plan.describe()})"
        )
    reference = sorted(prebuilt.output, key=repr)
    for row in rows[1:]:
        output = sorted(row.details["Dynamic"].output, key=repr)
        if not _equivalent(output, reference):
            raise AssertionError(
                f"build-q3 {row.label!r} produced different output"
            )
    return rows


# ----------------------------------------------------------------------
# Speculation -- hot-shard Q3 with an injected slow host
# ----------------------------------------------------------------------
SPEC_Q3_MODES = ("Cache",)


def run_spec_q3() -> List[ExperimentRow]:
    """TPC-H Q3 (forced Cache strategy) with speculative execution.

    One row per configuration:

    * ``clean-off`` / ``clean-on`` -- no faults, speculation off/on.
      With every wave uniform there are no stragglers to back up, so
      speculation-on must reproduce the off timing *exactly*
      (speculation never adds simulated cost).
    * ``slow-off`` -- one host (``node05``) straggles every task by x4;
      the wave tail stretches the whole job.
    * ``slow-on`` -- same faults with speculation enabled: tail tasks
      get backups on idle hosts and the first finisher wins (the
      experiment's headline -- the regression floor asserts at least a
      20% reduction).
    * ``slow-on-routed`` -- ``slow-on`` plus replica-aware lookup
      routing, demonstrating the two features compose; routing is pure
      bookkeeping, so its simulated time must equal ``slow-on``
      exactly.

    Speculation and routing both guarantee bit-identical outputs, which
    is asserted across all five rows here (and locked down by
    ``tests/mapreduce/test_spec_equivalence.py``).
    """
    cluster = bench_cluster(job_startup=0.05)
    # Wide blocks give a single map wave (about 20 tasks on 24 slots):
    # the straggler's peers finish, their slots free up, and backups can
    # start well before the slow host would have -- the configuration
    # speculation targets.
    dfs = DistributedFileSystem(cluster, block_size=40 * 1024)
    data = tpch.generate(tpch.TpchConfig(sf=0.002))
    tpch.write_lineitem(dfs, "/in/lineitem", data)
    indexes = tpch.build_indexes(cluster, data, service_time=6e-3)
    slow = FaultPlan(seed=7, straggler_factors={"node05": 4.0})

    def run_phase(label, fault_plan, speculation_factor, route_policy=None):
        def job_factory(name):
            indexes.reset_accounting()
            return tpch.make_q3_job(name, "/in/lineitem", f"/out/{name}", indexes)

        return run_all_modes(
            cluster,
            dfs,
            job_factory,
            extra_job_targets=("head0",),
            modes=SPEC_Q3_MODES,
            label=label,
            fault_plan=fault_plan,
            # Routing engages on the native-multiget path, so every row
            # runs batched (the same size for all, keeping them
            # comparable).
            batch_size=64,
            speculation_factor=speculation_factor,
            route_policy=route_policy,
        )

    rows = [
        run_phase("clean-off", None, None),
        run_phase("clean-on", None, 1.5),
        run_phase("slow-off", slow, None),
        run_phase("slow-on", slow, 1.5),
        run_phase("slow-on-routed", slow, 1.5, route_policy="least-loaded"),
    ]
    # Routers attach to the (shared) index objects; detach so the rows
    # above stay re-runnable against the same indexes.
    for store in indexes.stores():
        store.set_router(None)

    by_label = {row.label: row for row in rows}
    if by_label["clean-on"].times["Cache"] != by_label["clean-off"].times["Cache"]:
        raise AssertionError(
            "spec-q3 clean-on changed the simulated time "
            f"({by_label['clean-on'].times['Cache']!r} != "
            f"{by_label['clean-off'].times['Cache']!r}); speculation "
            "must never add simulated cost on a clean run"
        )
    if by_label["slow-on-routed"].times["Cache"] != by_label["slow-on"].times["Cache"]:
        raise AssertionError(
            "spec-q3 routing changed the simulated time "
            f"({by_label['slow-on-routed'].times['Cache']!r} != "
            f"{by_label['slow-on'].times['Cache']!r}); routing is pure "
            "bookkeeping"
        )
    reference = sorted(by_label["clean-off"].details["Cache"].output, key=repr)
    for row in rows[1:]:
        output = sorted(row.details["Cache"].output, key=repr)
        if not _equivalent(output, reference):
            raise AssertionError(
                f"spec-q3 {row.label!r} produced different output"
            )
    _check_spec_q3_live(by_label)
    return rows


def _check_spec_q3_live(by_label) -> None:
    """With ``--trace --live`` attached, spec-q3 doubles as the SLO
    acceptance experiment: a clean cluster must fire zero alerts, and
    the un-mitigated slow host must fire ``wave-straggler`` with a
    firing window that overlaps its critical-path segments."""
    from repro.obs.config import get_live_rules, get_trace_dir

    if get_live_rules() is None or get_trace_dir() is None:
        return
    for label in ("clean-off", "clean-on"):
        fired = by_label[label].alerts.get("Cache", [])
        if fired:
            raise AssertionError(
                f"spec-q3 {label!r} fired {len(fired)} SLO alert(s) on a "
                f"clean cluster: {[a['rule'] for a in fired]}"
            )
    fired = by_label["slow-off"].alerts.get("Cache", [])
    if not any(a["rule"] == "wave-straggler" for a in fired):
        raise AssertionError(
            "spec-q3 'slow-off' (x4-slow node05, speculation off) did "
            f"not fire the wave-straggler SLO; fired: "
            f"{[a['rule'] for a in fired]}"
        )
    from repro.obs.analysis import critical_path as cp
    from repro.obs.analysis.loader import load_one

    artifact = load_one(by_label["slow-off"].trace_paths["Cache"]["trace"])
    annotated = [
        seg
        for path in cp.critical_paths(artifact.spans, alerts=artifact.alert_rows)
        for seg in path.segments
        if seg.kind == "task" and any("wave-straggler" in a for a in seg.alerts)
    ]
    if not annotated:
        raise AssertionError(
            "spec-q3 'slow-off': no critical-path task segment overlaps "
            "the wave-straggler alert's firing window"
        )


# ----------------------------------------------------------------------
# Batching -- runtime vs multiget batch size per strategy
# ----------------------------------------------------------------------
BATCH_SIZES = (1, 8, 64, 256)
BATCH_MODES = ("Base", "Cache", "Repart", "Idxloc")


def run_batching() -> List[ExperimentRow]:
    """The Fig. 11(b) workload (TPC-H Q3) swept over multiget batch
    sizes.

    x-axis: the strategy layer's ``batch_size`` (pending records per
    multiget flush). ``B=1`` fetches each key by a single lookup; every
    larger batch amortises the KV store's fixed per-request cost
    (``C_req + B*C_key`` instead of ``B*T_j``) and one network latency
    per batch, so simulated lookup time must fall monotonically with
    the batch size for every strategy. Outputs are verified identical
    across strategies at each batch size.
    """
    rows = []
    for batch_size in BATCH_SIZES:
        cluster = bench_cluster()
        dfs = DistributedFileSystem(cluster, block_size=12 * 1024)
        data = tpch.generate(tpch.TpchConfig(sf=0.002))
        tpch.write_lineitem(dfs, "/in/lineitem", data)
        indexes = tpch.build_indexes(cluster, data, service_time=6e-3)

        def job_factory(name, indexes=indexes):
            indexes.reset_accounting()
            return tpch.make_q3_job(name, "/in/lineitem", f"/out/{name}", indexes)

        rows.append(
            run_all_modes(
                cluster,
                dfs,
                job_factory,
                extra_job_targets=("head0",),
                modes=BATCH_MODES,
                label=f"B={batch_size}",
                batch_size=batch_size,
            )
        )
    return rows
