"""The paper's experiments as importable functions.

Each ``run_*`` function builds its workload, runs the solution variants,
and returns the :class:`ExperimentRow` list that the corresponding
figure reports. :data:`EXPERIMENTS` at the end declares each one once
(title, runner, modes, table layout): ``python -m repro.bench``, the
baseline suites and the pytest-benchmark wrappers under
``benchmarks/`` (which assert the paper's qualitative shapes) all read
it.

Workload scales and calibrations are documented in DESIGN.md §5 and
EXPERIMENTS.md ("Known deviations").
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bench.harness import (
    SIX_MODES,
    Experiment,
    ExperimentRow,
    _same_output,
    bench_cluster,
    run_all_modes,
)
from repro.common.sizing import sizeof
from repro.core.reuse import ReuseStore
from repro.dfs.filesystem import DistributedFileSystem
from repro.simcluster.faults import FaultPlan, RetryPolicy
from repro.workloads import hzknnj, knn, osm, synthetic, tpch, weblog


def _tpch(block_kb: int, path: str, sf: float, dup: int, q9: bool, **cluster_kw):
    """A bench cluster (``cluster_kw`` as for :func:`bench_cluster`), its
    DFS holding TPC-H LineItem at ``path`` (``dup`` copies of each row),
    the dimension indexes, and a factory of the Q9 (``q9``) or Q3 job.

    For Q9, supplier_scale=100 keeps SF10's defining property after the
    downscale: far more suppliers than lookup-cache entries (a 256-entry
    cache vs ~2000 suppliers), so Q9's unclustered supplier probes
    thrash the cache exactly as at full scale. The Supplier index takes
    a lookup for *every* LineItem row -- by far the hottest index in
    Q9 -- so its effective per-lookup service time is the highest
    (queueing on its partitions at SF10).
    """
    cluster = bench_cluster(**cluster_kw)
    dfs = DistributedFileSystem(cluster, block_size=block_kb * 1024)
    data = tpch.generate(tpch.TpchConfig(sf=sf, supplier_scale=100 if q9 else 1.0))
    tpch.write_lineitem(dfs, path, data, dup_factor=dup)
    indexes = tpch.build_indexes(cluster, data, service_time=1.2e-3 if q9 else 6e-3)
    if q9:
        indexes.supplier.set_service_time(15e-3)
    make = tpch.make_q9_job if q9 else tpch.make_q3_job
    return cluster, dfs, indexes, lambda name: make(name, path, f"/out/{name}", indexes)


def _size_label(size: int) -> str:
    return f"{size}B" if size < 1024 else f"{size // 1024}KB"


def _same_time(what, rows, mode, reference, labels, why) -> None:
    """Raise unless each row in ``labels`` ran ``mode`` in exactly the
    simulated time of row ``reference``."""
    times = {row.label: row.times[mode] for row in rows}
    for label in labels:
        if times[label] != times[reference]:
            raise AssertionError(
                f"{what} {label!r} changed the simulated time "
                f"({times[label]!r} != {times[reference]!r}); {why}"
            )


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
                cluster, dfs, job_factory, modes=FIG11A_MODES, label=f"+{delay_ms:g}ms"
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 11(b) -- TPC-H Q3
# ----------------------------------------------------------------------
def run_fig11b() -> List[ExperimentRow]:
    # ~65 splits over 24 map slots: the first map wave covers about a
    # third of the input, leaving enough remaining work for the dynamic
    # optimizer's plan change to pay off (paper Section 5.3).
    cluster, dfs, _, job = _tpch(12, "/in/lineitem", 0.002, 1, False)
    # Forced shuffles target head0, the Orders join, as in the paper.
    return [run_all_modes(cluster, dfs, job, label="Q3")]


# ----------------------------------------------------------------------
# Figure 11(c) -- TPC-H Q9
# ----------------------------------------------------------------------
def run_fig11c() -> List[ExperimentRow]:
    cluster, dfs, _, job = _tpch(24, "/in/lineitem", 0.002, 1, True)
    # Forced shuffles target head0, the Supplier join, as in the paper.
    return [run_all_modes(cluster, dfs, job, label="Q9", cache_capacity=256)]


# ----------------------------------------------------------------------
# Figures 11(d,e) -- DUP10
# ----------------------------------------------------------------------
def run_fig11d() -> List[ExperimentRow]:
    cluster, dfs, _, job = _tpch(24, "/in/lineitem10", 0.001, 10, False)
    return [run_all_modes(cluster, dfs, job, label="DUP10 Q3")]


def run_fig11e() -> List[ExperimentRow]:
    cluster, dfs, _, job = _tpch(24, "/in/lineitem10", 0.001, 10, True)
    return [run_all_modes(cluster, dfs, job, label="DUP10 Q9", cache_capacity=256)]


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

        rows.append(
            run_all_modes(
                cluster,
                dfs,
                job_factory,
                label=_size_label(result_size),
                forced_boundary="pre",  # never materialise the big results
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 12 -- lookup latency micro-benchmark
# ----------------------------------------------------------------------
FIG12_SIZES = (10, 100, 1024, 10_240, 30_720)


def run_fig12() -> List[ExperimentRow]:
    """One row per result size; its times are milliseconds per lookup."""
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
        times = {"local": local / n * 1e3, "remote": remote / n * 1e3}
        rows.append(ExperimentRow(label=_size_label(size), times=times))
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

    row = run_all_modes(cluster, dfs, job_factory, label="kNNJ k=10")

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
        # small blocks -> several map waves even at x1, so the
        # statistics phase is a first *round*, not the whole map phase
        cluster, dfs, _, job = _tpch(8, "/in/li", 0.001, dup, True)
        rows.append(
            run_all_modes(
                cluster, dfs, job, modes=SEC53_MODES, label=label, cache_capacity=256
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
        cluster, dfs, indexes, job = _tpch(12, "/in/lineitem", 0.002, 1, False)
        plan = None
        if rate > 0.0:
            plan = FaultPlan(
                seed=1729,
                lookup_failure_rate=rate,
                lookup_timeout_rate=rate / 2.0,
                dead_hosts=(FAULT_DEAD_HOST,),
            )
            indexes.set_fault_plan(plan, FAULT_RETRY_POLICY)
        rows.append(
            run_all_modes(
                cluster,
                dfs,
                job,
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
    cluster, dfs, indexes, job = _tpch(
        12, "/in/lineitem", 0.002, 1, False, job_startup=0.05
    )
    reuse_store = ReuseStore()

    def run_phase(label, reuse):
        return run_all_modes(
            cluster, dfs, job, modes=REUSE_Q3_MODES, label=label, reuse=reuse
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

    _same_time(
        "reuse-q3", rows, "Cache", "disabled", ("disabled-2", "cold", "invalidated"),
        "reuse must never add simulated cost",
    )
    _same_output("reuse-q3", {row.label: row.details["Cache"] for row in rows})
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

    cluster, dfs, indexes, job = _tpch(
        12, "/in/lineitem", 0.002, 1, False, job_startup=0.05
    )
    session = BuildSession(
        {indexes.orders.name: indexes.orders}, fraction=BUILD_Q3_FRACTION
    )

    def run_phase(label, build):
        return run_all_modes(
            cluster, dfs, job, modes=BUILD_Q3_MODES, label=label, build=build
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
    _same_time(
        "build-q3", rows, "Dynamic", "prebuilt", ("full",),
        "a fully covered build session must cost nothing",
    )
    prebuilt = by_label["prebuilt"].details["Dynamic"]
    full = by_label["full"].details["Dynamic"]
    if full.plan.describe() != prebuilt.plan.describe():
        raise AssertionError(
            f"build-q3 'full' picked a different plan than 'prebuilt' "
            f"({full.plan.describe()} != {prebuilt.plan.describe()})"
        )
    _same_output("build-q3", {row.label: row.details["Dynamic"] for row in rows})
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
    # Wide blocks give a single map wave (about 20 tasks on 24 slots):
    # the straggler's peers finish, their slots free up, and backups can
    # start well before the slow host would have -- the configuration
    # speculation targets.
    cluster, dfs, indexes, job = _tpch(
        40, "/in/lineitem", 0.002, 1, False, job_startup=0.05
    )
    slow = FaultPlan(seed=7, straggler_factors={"node05": 4.0})

    def run_phase(label, fault_plan, speculation_factor, route_policy=None):
        return run_all_modes(
            cluster,
            dfs,
            job,
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

    _same_time(
        "spec-q3", rows, "Cache", "clean-off", ("clean-on",),
        "speculation must never add simulated cost on a clean run",
    )
    _same_time(
        "spec-q3", rows, "Cache", "slow-on", ("slow-on-routed",),
        "routing is pure bookkeeping",
    )
    _same_output("spec-q3", {row.label: row.details["Cache"] for row in rows})
    _check_spec_q3_live({row.label: row for row in rows})
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
        cluster, dfs, _, job = _tpch(12, "/in/lineitem", 0.002, 1, False)
        rows.append(
            run_all_modes(
                cluster,
                dfs,
                job,
                modes=BATCH_MODES,
                label=f"B={batch_size}",
                batch_size=batch_size,
            )
        )
    return rows


# ----------------------------------------------------------------------
# The registry: every experiment above, declared once
# ----------------------------------------------------------------------
EXPERIMENTS: Dict[str, Experiment] = {
    "fig11a": Experiment(
        "LOG: runtime vs extra lookup delay",
        "Figure 11(a)",
        run_fig11a,
        FIG11A_MODES,
        "extra delay",
    ),
    "fig11a-small": Experiment(
        "LOG: runtime at +1ms lookup delay",
        "Figure 11(a) [small]",
        lambda: run_fig11a(delays=(1.0,)),
        FIG11A_MODES,
        "extra delay",
    ),
    "fig11b": Experiment("TPC-H Q3", "Figure 11(b)", run_fig11b, SIX_MODES, "query"),
    "fig11c": Experiment("TPC-H Q9", "Figure 11(c)", run_fig11c, SIX_MODES, "query"),
    "fig11d": Experiment(
        "TPC-H DUP10 Q3", "Figure 11(d)", run_fig11d, SIX_MODES, "query"
    ),
    "fig11e": Experiment(
        "TPC-H DUP10 Q9", "Figure 11(e)", run_fig11e, SIX_MODES, "query"
    ),
    "fig11f": Experiment(
        "Synthetic: runtime vs lookup result size",
        "Figure 11(f)",
        run_fig11f,
        SIX_MODES,
        "result size",
    ),
    "fig11f-small": Experiment(
        "Synthetic join, 1KB results (Figure 11f, single point)",
        "Figure 11(f) [small]",
        lambda: run_fig11f(sizes=(1024,)),
        SIX_MODES,
        "result size",
    ),
    "fig12": Experiment(
        "Lookup latency vs result size (ms per lookup)",
        "Figure 12",
        run_fig12,
        ("local", "remote"),
        "result size",
        digits=3,
    ),
    "fig13": Experiment(
        "kNN join: EFind vs H-zkNNJ",
        "Figure 13",
        run_fig13,
        SIX_MODES + ("H-zkNNJ",),
        "workload",
    ),
    "sec53": Experiment(
        "Adaptive optimization anatomy",
        "Section 5.3",
        run_sec53,
        SEC53_MODES,
        "workload",
    ),
    "batching": Experiment(
        "TPC-H Q3: runtime vs multiget batch size",
        "Batching",
        run_batching,
        BATCH_MODES,
        "batch size",
        counters=("batches",),
    ),
    "reuse-q3": Experiment(
        "TPC-H Q3 repeated against one cross-job ReuseStore",
        "Reuse",
        run_reuse_q3,
        REUSE_Q3_MODES,
        "store state",
        counters=("reuse",),
    ),
    "build-q3": Experiment(
        "TPC-H Q3 while the Orders index is built in-job",
        "Build",
        run_build_q3,
        BUILD_Q3_MODES,
        "build state",
        counters=("build",),
    ),
    "spec-q3": Experiment(
        "TPC-H Q3 with one x4-slow host, speculation off/on",
        "Speculation",
        run_spec_q3,
        SPEC_Q3_MODES,
        "config",
        counters=("spec", "route"),
    ),
    "faults": Experiment(
        "TPC-H Q3: runtime vs lookup failure rate",
        "Fault recovery",
        run_fault_recovery,
        FAULT_MODES,
        "failure rate",
        counters=("faults",),
    ),
}
