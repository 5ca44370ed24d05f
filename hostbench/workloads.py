"""The four hostbench workloads.

Each workload builds its inputs from a seed, exposes one *pass* (its
full job set, every ``run(...)`` call wrapped by the ``timed`` callable
the protocol hands in) and an engine-independent reference output. Only
public functions of ``repro`` are called; ``repro.bench`` is not used,
so the figure harness may change without moving this benchmark.

Why these four: BENCHMARK.json (``workloads[].why``) and
hostbench/README.md.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.costmodel import Strategy
from repro.core.reuse import ReuseSession
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.build import BuildSession
from repro.indices.kvstore import DistributedKVStore
from repro.obs import Observability
from repro.obs.analysis import critical_path, drift, stragglers
from repro.obs.analysis.diff import diff_paths
from repro.obs.analysis.loader import load_artifacts
from repro.obs.live import LiveSession
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan, RetryPolicy
from repro.simcluster.timemodel import TimeModel
from repro.workloads import hzknnj, knn, osm, tpch
from repro.workloads.tpch import schema as sc
from repro.workloads.tpch.queries import Q3_DATE

from hostbench import ROOT

#: ``timed(name, fn, *args, **kwargs)`` runs ``fn`` inside the timed
#: region of the current pass and returns its result.
Timed = Callable[..., Any]

FORCED = {
    "base": Strategy.BASELINE,
    "cache": Strategy.CACHE,
    "repart": Strategy.REPART,
    "idxloc": Strategy.IDXLOC,
}
SIX_MODES = tuple(FORCED) + ("optimized", "dynamic")

#: Retry knobs scaled to the benchmark cluster, as the fault-recovery
#: figure uses them (Hadoop's defaults are seconds; jobs here run for a
#: few simulated seconds in total).
RETRY_POLICY = RetryPolicy(
    max_attempts=4,
    base_backoff=5e-3,
    backoff_multiplier=2.0,
    max_backoff=0.1,
    jitter=0.5,
    attempt_timeout=20e-3,
)

SLO_RULES = os.path.join(ROOT, "benchmarks", "slo_rules.json")


def bench_cluster(network_latency: float = 0.0) -> Cluster:
    """The figures' cluster: the paper's 12 nodes with job/task start-up
    scaled down with the datasets."""
    return Cluster(
        num_nodes=12,
        map_slots_per_node=2,
        reduce_slots_per_node=2,
        time_model=TimeModel(
            job_startup_time=0.5,
            task_startup_time=0.03,
            network_latency=network_latency,
        ),
    )


@dataclass
class State:
    """What set-up leaves behind: everything a pass and the probes use."""

    cluster: Cluster
    dfs: DistributedFileSystem
    input_path: str
    records: List[Tuple[Any, Any]]
    """The main input, as written to the DFS."""
    hot_index: Any
    """The index the layer probes exercise."""
    hot_keys: List[Any]
    """The lookup keys the input sends to ``hot_index``, in input order."""
    indexes: List[Any]
    """Every index the jobs read (their accounting is reset per pass)."""
    extra: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """One set of inputs plus the job set run over it."""

    name = ""
    cache_capacity = 1024
    variants: Tuple[str, ...] = ()
    """Job names of one pass, in execution order."""
    runner_jobs: Dict[str, str] = {}
    """``core.runner.*`` metric suffix -> the job it reports."""
    feature_legs: Tuple[str, ...] = ()
    """Jobs reported as ``feature.<leg>.*`` (q3-features only)."""

    def __init__(self, seed: Optional[int] = None, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    # -- protocol surface ----------------------------------------------
    def setup(self, timed: Timed) -> State:
        raise NotImplementedError

    def run_pass(self, st: State, timed: Timed, scratch: str) -> Dict[str, Any]:
        """Run every job once; returns job name -> result. ``scratch``
        is a directory for artifacts the pass writes."""
        raise NotImplementedError

    def reset(self, st: State) -> None:
        """Back to the state set-up left: job outputs and intermediates
        deleted, index accounting zeroed."""
        for path in st.dfs.listdir():
            if not path.startswith("/in/"):
                st.dfs.delete(path)
        for index in st.indexes:
            index.reset_accounting()

    def sim_s(self, results: Dict[str, Any]) -> float:
        """The workload's end-to-end simulated seconds."""
        raise NotImplementedError

    def references(self, st: State) -> Dict[str, list]:
        """Engine-independent expected outputs, canonical form, by name."""
        raise NotImplementedError

    def reference_of(self, job: str) -> Optional[str]:
        """Name of the reference ``job``'s output must equal; None means
        the job has no independent reference and is held to its own
        warm-up output."""
        raise NotImplementedError

    def canonical(self, job: str, result: Any) -> list:
        return sorted(result.output)

    def pass_checks(self, st: State, results: Dict[str, Any]) -> Dict[str, str]:
        """Workload-specific invariants of one pass: job -> what broke."""
        return {}

    def load_hot_index(self, st: State) -> Any:
        """Load the hot index's entries into a fresh index (the probe
        behind ``indices.put_us``); returns it."""
        raise NotImplementedError

    def planner_probe(self, st: State):
        """``(iconf, catalog)`` for the ``optimize_job`` probe: a job and
        the statistics the last pass left for it."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Six-variant workloads (the figures' Base/Cache/Repart/Idxloc/
# Optimized/Dynamic comparison)
# ----------------------------------------------------------------------
class SixModeWorkload(Workload):
    label = ""
    variants = ("base", "cache", "repart", "idxloc", "profile", "optimized", "dynamic")
    runner_jobs = {mode: mode for mode in SIX_MODES}

    def sim_s(self, results):
        # What a user with no statistics gets.
        return results["dynamic"].sim_time

    def make_job(self, st: State, name: str):
        raise NotImplementedError

    def _runner(self, st: State, **kwargs) -> EFindRunner:
        return EFindRunner(
            st.cluster, st.dfs, cache_capacity=self.cache_capacity, **kwargs
        )

    def run_pass(self, st, timed, scratch):
        results = {}
        for mode, strategy in FORCED.items():
            job = self.make_job(st, f"{self.label}-{mode}")
            results[mode] = timed(
                mode,
                self._runner(st).run,
                job,
                mode="forced",
                forced_strategy=strategy,
                extra_job_targets=["head0"],
            )
        # "Sufficient statistics": a baseline profiling run feeds the
        # catalog the static optimizer plans from.
        profiler = self._runner(st)
        results["profile"] = timed(
            "profile",
            profiler.run,
            self.make_job(st, f"{self.label}-profile"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        results["optimized"] = timed(
            "optimized",
            self._runner(st, catalog=profiler.catalog).run,
            self.make_job(st, f"{self.label}-optimized"),
            mode="static",
        )
        results["dynamic"] = timed(
            "dynamic",
            self._runner(st).run,
            self.make_job(st, f"{self.label}-dynamic"),
            mode="dynamic",
        )
        st.extra["catalog"] = profiler.catalog
        return results

    def reference_of(self, job):
        return "main"

    def planner_probe(self, st):
        return self.make_job(st, f"{self.label}-probe"), st.extra["catalog"]


class TpchWorkload(SixModeWorkload):
    """Shared TPC-H set-up; subclasses pick the query."""

    sf = 0.002
    smoke_sf = 0.0007
    supplier_scale = 1.0
    block_size = 12 * 1024
    service_time = 6e-3

    def config(self) -> tpch.TpchConfig:
        kwargs = {} if self.seed is None else {"seed": self.seed}
        return tpch.TpchConfig(
            sf=self.smoke_sf if self.smoke else self.sf,
            supplier_scale=self.supplier_scale,
            **kwargs,
        )

    def hot_store(self, indexes: tpch.TpchIndexes) -> DistributedKVStore:
        raise NotImplementedError

    def hot_keys(self, data: tpch.TpchData) -> list:
        raise NotImplementedError

    def hot_entries(self, data: tpch.TpchData) -> list:
        raise NotImplementedError

    def tune_indexes(self, indexes: tpch.TpchIndexes) -> None:
        pass

    def setup(self, timed):
        cluster = bench_cluster()
        dfs = DistributedFileSystem(cluster, block_size=self.block_size)
        data = timed("generate", tpch.generate, self.config())
        timed("dfs_write", tpch.write_lineitem, dfs, "/in/lineitem", data)
        indexes = timed(
            "index_build",
            tpch.build_indexes,
            cluster,
            data,
            service_time=self.service_time,
        )
        self.tune_indexes(indexes)
        return State(
            cluster=cluster,
            dfs=dfs,
            input_path="/in/lineitem",
            records=data.lineitem,
            hot_index=self.hot_store(indexes),
            hot_keys=self.hot_keys(data),
            indexes=list(indexes.stores()),
            extra={"data": data, "indexes": indexes},
        )

    def load_hot_index(self, st):
        hot = st.hot_index
        fresh = DistributedKVStore(
            hot.name, st.cluster, num_partitions=32, service_time=hot.service_time()
        )
        for key, value in self.hot_entries(st.extra["data"]):
            fresh.put_unique(key, value)
        return fresh

class Q3Workload(TpchWorkload):
    """TPC-H Q3; the Orders index is the hot one."""

    def make_job(self, st, name):
        indexes = st.extra["indexes"]
        indexes.reset_accounting()
        return tpch.make_q3_job(name, st.input_path, f"/out/{name}", indexes)

    def hot_store(self, indexes):
        return indexes.orders

    def hot_keys(self, data):
        # What Q3OrdersOperator.pre_process sends to the Orders index.
        return [
            item[sc.L_ORDERKEY]
            for _line, item in data.lineitem
            if item[sc.L_SHIPDATE] > Q3_DATE
        ]

    def hot_entries(self, data):
        return [
            (o[sc.O_KEY], (o[sc.O_CUST], o[sc.O_DATE], o[sc.O_SHIPPRIORITY]))
            for o in data.orders
        ]

    def references(self, st):
        return {"main": sorted(tpch.reference_q3(st.extra["data"]).items())}


class Q3Join(Q3Workload):
    name = "q3-join"
    label = "Q3"  # run_fig11b's job names, which block placement hashes

    def pass_checks(self, st, results):
        """Fidelity anchor: at the committed figure configuration the
        six simulated times are the ones BENCH_tpch.json records."""
        if self.seed is not None or self.smoke:
            return {}
        committed = _committed_fig11b_times()
        return {
            mode: f"sim {results[mode].sim_time!r} != committed {committed[mode]!r}"
            for mode in SIX_MODES
            if results[mode].sim_time != committed[mode]
        }


def _committed_fig11b_times() -> Dict[str, float]:
    with open(os.path.join(ROOT, "BENCH_tpch.json")) as fh:
        times = json.load(fh)["experiments"]["fig11b"]["rows"][0]["times"]
    return {mode.lower(): value for mode, value in times.items()}


class Q9Multi(TpchWorkload):
    name = "q9-multi"
    label = "Q9"
    sf = 0.0006
    # Far more suppliers than cache entries, as at SF10: the unclustered
    # supplier probes thrash the LRU (run_fig11c's calibration).
    supplier_scale = 100
    cache_capacity = 256
    # run_fig11c's 24 KB blocks, scaled with the input so the map phase
    # still runs in several waves (the adaptive optimizer needs a first
    # wave to sample and a remainder to re-plan).
    block_size = 8 * 1024
    service_time = 1.2e-3

    def tune_indexes(self, indexes):
        # Supplier takes a lookup for every LineItem row.
        indexes.supplier.set_service_time(15e-3)

    def setup(self, timed):
        st = super().setup(timed)
        st.extra["color"] = _steady_color(st.extra["data"])
        return st

    def make_job(self, st, name):
        return tpch.make_q9_job(
            name,
            st.input_path,
            f"/out/{name}",
            st.extra["indexes"],
            color=st.extra["color"],
        )

    def hot_store(self, indexes):
        return indexes.supplier

    def hot_keys(self, data):
        return [item[sc.L_SUPPKEY] for _line, item in data.lineitem]

    def hot_entries(self, data):
        return [(s[sc.S_KEY], s[sc.S_NATION]) for s in data.supplier]

    def references(self, st):
        expected = tpch.reference_q9(st.extra["data"], color=st.extra["color"])
        return {"main": sorted(expected.items())}


def _steady_color(data: tpch.TpchData) -> str:
    """Q9's part-name filter. At this scale there are ~120 parts, so a
    fixed colour keeps anything from 11% to 22% of the rows depending on
    the seed, and the host time follows. The colour whose share of the
    LineItem rows is nearest the expected 1/6 keeps runs at different
    seeds measuring the same amount of work."""
    color_of = {part[sc.P_KEY]: part[sc.P_NAME].split()[0] for part in data.part}
    rows = {color: 0 for color in sc.PART_COLORS}
    for _line, item in data.lineitem:
        rows[color_of[item[sc.L_PARTKEY]]] += 1
    expected = len(data.lineitem) / len(rows)
    return min(rows, key=lambda color: (abs(rows[color] - expected), color))


class KnnjSpatial(SixModeWorkload):
    name = "knnj-spatial"
    label = "kNNJ"
    variants = SixModeWorkload.variants + ("hzknnj",)
    runner_jobs = {**SixModeWorkload.runner_jobs, "hzknnj": "hzknnj"}
    num_points = 3_000
    smoke_points = 1_000
    knn_cfg = knn.KnnConfig(k=10, grid_x=4, grid_y=8, overlap=0.1)
    hz_cfg = hzknnj.HzknnjConfig(k=10, alpha=2, num_partitions=16)
    #: H-zkNNJ is approximate; it is held to this recall against the
    #: exact R*-tree answer (tests/workloads pins 0.6 for alpha=3, k=5).
    hz_min_recall = 0.6

    def setup(self, timed):
        # Per-request network latency: what index locality eliminates
        # (run_fig13's cluster).
        cluster = bench_cluster(network_latency=2e-3)
        dfs = DistributedFileSystem(cluster, block_size=24 * 1024)
        n = self.smoke_points if self.smoke else self.num_points
        seed_a, seed_b = (71, 72) if self.seed is None else (self.seed, self.seed + 1)

        def generate():
            a = osm.generate_points(osm.OsmConfig(num_points=n, seed=seed_a), "A")
            b = osm.generate_points(osm.OsmConfig(num_points=n, seed=seed_b), "B")
            return a, b

        def write():
            osm.write_points(dfs, "/in/osm-a", a_points)
            osm.write_points(dfs, "/in/osm-b", b_points)

        a_points, b_points = timed("generate", generate)
        timed("dfs_write", write)
        index = timed(
            "index_build",
            knn.build_spatial_index,
            cluster,
            b_points,
            self.knn_cfg,
            service_time=1.5e-3,
        )
        return State(
            cluster=cluster,
            dfs=dfs,
            input_path="/in/osm-a",
            records=dfs.read("/in/osm-a"),
            hot_index=index,
            hot_keys=[point for point, _rid in a_points],
            indexes=[index],
            extra={"a": a_points, "b": b_points},
        )

    def make_job(self, st, name):
        return knn.make_knnj_job(name, st.input_path, f"/out/{name}", st.hot_index)

    def run_pass(self, st, timed, scratch):
        results = super().run_pass(st, timed, scratch)
        # The index-free control: pure mapreduce + dfs, no lookup path.
        results["hzknnj"] = timed(
            "hzknnj",
            hzknnj.run_hzknnj,
            st.cluster,
            st.dfs,
            "/in/osm-a",
            "/in/osm-b",
            self.hz_cfg,
        )
        return results

    def references(self, st):
        exact = knn.reference_knnj(st.extra["a"], st.hot_index)
        return {"main": sorted(exact.items())}

    def reference_of(self, job):
        return None if job == "hzknnj" else "main"

    def canonical(self, job, result):
        if job == "hzknnj":
            return sorted(result.neighbours.items())
        return sorted(result.output)

    def pass_checks(self, st, results):
        exact = dict(results["cache"].output)
        approx = results["hzknnj"].neighbours
        if set(approx) != set(exact):
            return {"hzknnj": "not one answer per A point"}
        k = self.hz_cfg.k
        recall = sum(
            len(set(exact[rid]) & set(found)) / k for rid, found in approx.items()
        ) / len(approx)
        if recall < self.hz_min_recall:
            return {"hzknnj": f"recall {recall:.3f} < {self.hz_min_recall}"}
        return {}

    def load_hot_index(self, st):
        return knn.build_spatial_index(
            st.cluster, st.extra["b"], self.knn_cfg, service_time=1.5e-3
        )


# ----------------------------------------------------------------------
# q3-features: one lookup pipeline, used eleven ways
# ----------------------------------------------------------------------
class Q3Features(Q3Workload):
    name = "q3-features"
    label = "q3f"
    sf = 0.0012
    block_size = 8 * 1024  # ~60 splits: three map waves, as run_fig11b
    variants = (
        "plain",
        "plain-dynamic",
        "batch64",
        "reuse-cold",
        "reuse-warm",
        "build-cold",
        "build-warm",
        "faults",
        "spec-routed",
        "traced",
        "traced-live",
    )
    runner_jobs = {"cache": "plain", "dynamic": "plain-dynamic"}
    feature_legs = variants[1:]
    #: Legs that must not move the simulated time of ``plain`` by a bit.
    sim_twins = ("reuse-cold", "traced", "traced-live")
    #: Passive observers: counters must equal ``plain``'s too.
    counter_twins = ("traced", "traced-live")

    def sim_s(self, results):
        return sum(results[leg].sim_time for leg in self.variants)

    def _leg(self, st, timed, leg, mode="forced", **runner_kwargs):
        job = self.make_job(st, f"{self.label}-{leg}")
        runner = self._runner(st, **runner_kwargs)
        run_kwargs = (
            {"mode": "dynamic"}
            if mode == "dynamic"
            else {
                "mode": "forced",
                "forced_strategy": Strategy.CACHE,
                "extra_job_targets": ["head0"],
            }
        )
        result = timed(leg, runner.run, job, **run_kwargs)
        return runner, result

    def run_pass(self, st, timed, scratch):
        indexes = st.extra["indexes"]
        results = {}

        def leg(name, **kwargs):
            runner, results[name] = self._leg(st, timed, name, **kwargs)
            return runner

        # The statistics a forced-Cache run leaves feed the planner probe.
        st.extra["catalog"] = leg("plain").catalog
        leg("plain-dynamic", mode="dynamic")
        leg("batch64", batch_size=64)

        reuse = ReuseSession()
        leg("reuse-cold", reuse=reuse)
        leg("reuse-warm", reuse=reuse)

        build = BuildSession({indexes.orders.name: indexes.orders}, fraction=1 / 3)
        leg("build-cold", mode="dynamic", build=build)
        leg("build-warm", mode="dynamic", build=build)

        faults = FaultPlan(
            seed=1729 if self.seed is None else self.seed,
            lookup_failure_rate=0.04,
        )
        indexes.set_fault_plan(faults, RETRY_POLICY)
        try:
            leg("faults", fault_plan=faults)
        finally:
            indexes.set_fault_plan(None)

        slow = FaultPlan(seed=7, straggler_factors={"node05": 4.0})
        try:
            leg(
                "spec-routed",
                fault_plan=slow,
                batch_size=64,
                speculation_factor=1.5,
                route_policy="least-loaded",
            )
        finally:
            # Routers attach to the shared index objects.
            for store in indexes.stores():
                store.set_router(None)

        obs = Observability()
        leg("traced", obs=obs)
        timed("obs.export", obs.export, scratch, "traced")
        st.extra["spans"] = len(obs.tracer.spans)
        timed("obs.analysis_report", _analysis_report, scratch)
        timed("obs.analysis_diff", diff_paths, scratch, scratch)

        live = LiveSession(rules=SLO_RULES)
        leg("traced-live", obs=Observability(bus=live.bus))
        live.finish()
        return results

    def pass_checks(self, st, results):
        broken = {}
        plain = results["plain"]
        for leg in self.sim_twins:
            if results[leg].sim_time != plain.sim_time:
                broken[leg] = (
                    f"sim {results[leg].sim_time!r} != plain {plain.sim_time!r}"
                )
        for leg in self.counter_twins:
            if results[leg].counters.to_dict() != plain.counters.to_dict():
                broken.setdefault(leg, "counters differ from plain")
        return broken


def _analysis_report(directory: str) -> dict:
    """What ``python -m repro.obs.analysis report --json`` computes."""
    artifacts = load_artifacts(directory)
    return {
        a.base: {
            "critical_paths": [
                p.to_dict()
                for p in critical_path.critical_paths(a.spans, alerts=a.alert_rows)
            ],
            "stragglers": [
                p.to_dict()
                for p in stragglers.phase_profiles(a.spans, alerts=a.alert_rows)
            ],
            "drift": [d.to_dict() for d in drift.job_drift(a)],
        }
        for a in artifacts
    }


WORKLOADS = {cls.name: cls for cls in (Q3Join, Q9Multi, KnnjSpatial, Q3Features)}
