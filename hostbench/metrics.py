"""Named metrics from one workload's measurement.

BENCHMARK.json declares every name, unit, direction and bound; this
module only computes values. A per-layer metric a workload does not
exercise (``feature.*`` outside q3-features, ``.hzknnj`` outside
knnj-spatial, the regrets on q3-features) is absent from the dict and
reported as 0 where a full set is required.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List

from hostbench.layers import LAYERS
from hostbench.measure import NOMINAL_CALIBRATION_S, Measurement, summary
from hostbench.workloads import FORCED, State, Workload


def _step_medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {step: median([row[step] for row in rows]) for step in rows[0]}


def pass_walls(m: Measurement) -> List[float]:
    return [sum(walls.values()) for walls in m.passes]


def wall_s(m: Measurement) -> float:
    """Nominal-host seconds of one pass (see measure.calibrate): the
    median over passes of each step, summed. Steadier than the median of pass totals on a host whose
    speed drifts within a pass (one slow step no longer drags its whole
    pass to one side of the median)."""
    return sum(_step_medians(m.passes).values())


def end_to_end(wl: Workload, st: State, m: Measurement, peak_rss_mb: float) -> dict:
    wall = wall_s(m)
    return {
        "setup_s": median([sum(steps.values()) for steps in m.setups]),
        "wall_s": wall,
        "records_per_s": len(st.records) * len(wl.variants) / wall,
        "peak_rss_mb": peak_rss_mb,
        "sim_s": wl.sim_s(m.results),
    }


def per_layer(wl: Workload, st: State, m: Measurement) -> dict:
    """The per-layer metrics the untraced passes already determine."""
    walls = _step_medians(m.passes)
    results = m.results
    out = {}
    for suffix, job in wl.runner_jobs.items():
        out[f"core.runner.wall_s.{suffix}"] = walls[job]
        out[f"core.runner.sim_s.{suffix}"] = results[job].sim_time

    cache = results[wl.runner_jobs["cache"]]
    dynamic = results[wl.runner_jobs["dynamic"]]
    out["mapreduce.tasks"] = sum(
        len(stage.map_runs) + len(stage.reduce_runs) for stage in cache.stage_results
    )
    out["mapreduce.map_output_bytes"] = cache.counters.get("task", "map_output_bytes")
    fetches = cache.counters.get("lookup", "fetches")
    out["core.strategy.fetches"] = fetches
    out["core.strategy.fetches_per_rec"] = fetches / len(st.records)
    out["core.adaptive.stages"] = dynamic.num_stages
    out["indices.build_s"] = median([steps["index_build"] for steps in m.setups])

    if all(mode in wl.runner_jobs for mode in FORCED):
        best = min(results[mode].sim_time for mode in FORCED)
        for chosen in ("dynamic", "optimized"):
            out[f"core.optimizer.regret_{chosen}"] = results[chosen].sim_time / best

    spread = summary(pass_walls(m))
    out["bench.pass_spread"] = (spread["q3"] - spread["q1"]) / spread["median"]
    out["bench.raw_wall_s"] = sum(_step_medians(m.raw_passes).values())
    out["bench.host_speed"] = NOMINAL_CALIBRATION_S / median(m.calibrations)

    for leg in wl.feature_legs:
        out[f"feature.{leg}.wall_s"] = walls[leg]
        out[f"feature.{leg}.wall_ratio"] = median(
            [p[leg] / p["plain"] for p in m.passes]
        )
        out[f"feature.{leg}.sim_s"] = results[leg].sim_time
    if wl.feature_legs:
        out["obs.trace_wall_ratio"] = out["feature.traced.wall_ratio"]
        out["obs.live_wall_ratio"] = median(
            [p["traced-live"] / p["traced"] for p in m.passes]
        )
        for step in ("export", "analysis_report", "analysis_diff"):
            out[f"obs.{step}_s"] = walls[f"obs.{step}"]
        out["obs.spans"] = st.extra["spans"]
    return out


def traced(
    m: Measurement, profiled_wall_s: float, buckets: Dict[str, Dict[str, dict]]
) -> dict:
    """Per-layer self time and call counts of the profiled pass, summed
    over its job runs, plus what profiling cost."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(b[layer]["self_s"] for b in buckets.values())
        out[f"{layer}.calls"] = sum(b[layer]["calls"] for b in buckets.values())
    out["bench.calls_total"] = sum(out[f"{layer}.calls"] for layer in LAYERS)
    out["bench.profile_overhead_ratio"] = profiled_wall_s / wall_s(m)
    return out
