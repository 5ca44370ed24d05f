"""Straggler and skew profiling over exported traces.

Three questions per phase:

* **how spread are the waves?** -- per-wave task-duration distributions
  (mean / median / p95 / max, coefficient of variation);
* **how skewed is the partitioning?** -- Gini coefficient and CV over
  per-task input bytes (``dfs.read`` for map, ``shuffle.fetch`` for
  reduce), the offline analogue of the counters the optimizer samples;
* **which tasks straggled, and why?** -- tasks slower than
  ``threshold x`` their wave's median, with the cause attributed from
  the task's exact op aggregates relative to its wave peers: fault
  retries, a cache-miss burst (excess index fetches), lookup-time
  excess, shuffle/input skew, or residual compute (e.g. a slow host).

A primary killed by a winning backup shows up as a ``task.killed``
span, not a slow ``task`` span -- the straggle never materialised. When
its *projected* duration would have crossed the threshold, the profile
reports it with cause ``mitigated-by-speculation``, so a speculation-on
trace still explains where the tail went.

Phases come from the run's span tree
(:func:`repro.obs.analysis.loader.build_forest`), one profile per phase
node: a dynamically replanned stage's aborted attempt and its re-run
share a conf name and task ids but ran under different plans, so they
are profiled apart (``attempt`` 0 and 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.analysis.critical_path import task_attribution
from repro.obs.analysis.loader import Result, SpanNode, build_forest, op_totals
from repro.obs.metrics import median

#: A task is flagged when its duration exceeds threshold x wave median.
DEFAULT_STRAGGLER_THRESHOLD = 1.5

#: How many of the slowest lookup spans the report lists.
SLOWEST_LOOKUPS = 10


def gini(values: List[float]) -> float:
    """Gini coefficient in [0, 1): 0 = perfectly even, ->1 = one value
    holds everything. Empty/zero-sum inputs answer 0."""
    n = len(values)
    total = sum(values)
    if n == 0 or total <= 0:
        return 0.0
    ordered = sorted(values)
    weighted = sum((i + 1) * v for i, v in enumerate(ordered))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


def coefficient_of_variation(values: List[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    if mean == 0:
        return 0.0
    var = sum((v - mean) ** 2 for v in values) / n
    return var**0.5 / mean


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, exact on boundaries --
    same rule as the metrics histograms)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered) - 1e-9)))
    return ordered[rank - 1]


@dataclass
class WaveProfile(Result):
    wave: int
    tasks: int
    mean: float
    median: float
    p95: float
    max: float
    cv: float


@dataclass
class Straggler(Result):
    task: str
    track: str
    wave: int
    duration: float
    wave_median: float
    slowdown: float  # duration / wave median
    cause: str
    #: bucket -> (task seconds, wave-median seconds) behind the cause.
    evidence: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: ``rule(severity)`` labels of live SLO alerts whose firing window
    #: overlapped this task (empty without an alert timeline).
    alerts: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["evidence"] = {
            k: {"task": a, "wave_median": b}
            for k, (a, b) in self.evidence.items()
        }
        return out


@dataclass
class PhaseProfile(Result):
    stage: str
    kind: str  # "map" | "reduce"
    #: The stage node's occurrence rank: 0 for a stage's only run, 1 for
    #: the re-run a dynamic replan starts under the same conf name.
    attempt: int
    tasks: int
    waves: List[WaveProfile]
    input_gini: float
    input_cv: float
    stragglers: List[Straggler]


# ----------------------------------------------------------------------
_NO_OP = (0.0, 0.0)


def _count(totals: Dict[str, Tuple[float, float]], name: str) -> float:
    return totals.get(name, _NO_OP)[0]


def _seconds(totals: Dict[str, Tuple[float, float]], name: str) -> float:
    return totals.get(name, _NO_OP)[1]


def _attribute_cause(
    task: SpanNode, peers: List[SpanNode]
) -> Tuple[str, Dict[str, Tuple[float, float]]]:
    """Name the dominant reason one task ran long, by comparing its
    exact op aggregates against the median of its wave peers."""
    mine = op_totals(task)
    peer_totals = [op_totals(p) for p in peers]

    def med(pick, name: str) -> float:
        if not peer_totals:
            return 0.0
        return median([pick(totals, name) for totals in peer_totals])

    evidence: Dict[str, Tuple[float, float]] = {}
    # Hard signals first: fault retries dominate any timing comparison.
    retries = _count(mine, "lookup.retry")
    if retries > 0:
        evidence["lookup.retry.count"] = (retries, med(_count, "lookup.retry"))
        return "fault-retries", evidence

    lookup_mine = _seconds(mine, "lookup") + _seconds(mine, "lookup.batch")
    lookup_med = med(_seconds, "lookup") + med(_seconds, "lookup.batch")
    shuffle_mine = _seconds(mine, "shuffle.fetch") + _seconds(
        mine, "shuffle.merge"
    )
    shuffle_med = med(_seconds, "shuffle.fetch") + med(_seconds, "shuffle.merge")
    read_mine = _seconds(mine, "dfs.read")
    read_med = med(_seconds, "dfs.read")
    # Compute is what the critical path calls compute: the task's time
    # past its top-level io / shuffle / lookup ops.
    compute_mine = task_attribution(task)["compute"]
    peer_computes = [task_attribution(p)["compute"] for p in peers]
    compute_med = median(peer_computes) if peer_computes else 0.0

    excesses = {
        "lookup": lookup_mine - lookup_med,
        "shuffle": shuffle_mine - shuffle_med,
        "input-read": read_mine - read_med,
        "compute": compute_mine - compute_med,
    }
    cause = max(sorted(excesses), key=lambda k: excesses[k])
    if excesses[cause] <= 0:
        cause = "compute"

    if cause == "lookup":
        evidence["lookup.seconds"] = (lookup_mine, lookup_med)
        fetches = _count(mine, "index.fetch")
        fetch_med = med(_count, "index.fetch")
        evidence["index.fetch.count"] = (fetches, fetch_med)
        # Many more cache misses than peers -> the lookup excess is a
        # cache-miss burst, not a slow index. Only meaningful when the
        # task actually probed a cache: a baseline-strategy task has
        # zero probes, so its excess fetches are plain lookup volume,
        # not misses.
        probes = _count(mine, "cache.probe")
        if probes > 0 and fetch_med > 0 and fetches > 1.5 * fetch_med:
            evidence["cache.probe.count"] = (probes, med(_count, "cache.probe"))
            return "cache-miss-burst", evidence
        return "slow-lookups", evidence
    if cause == "shuffle":
        evidence["shuffle.seconds"] = (shuffle_mine, shuffle_med)
        peer_bytes = [p.input_bytes or 0.0 for p in peers]
        evidence["input.bytes"] = (
            task.input_bytes or 0.0, median(peer_bytes) if peer_bytes else 0.0
        )
        return "partition-skew", evidence
    if cause == "input-read":
        evidence["dfs.read.seconds"] = (read_mine, read_med)
        return "input-skew", evidence
    evidence["compute.seconds"] = (compute_mine, compute_med)
    return "slow-compute", evidence


def _alert_labels(task: SpanNode, alerts: Optional[List[dict]]) -> List[str]:
    """Live SLO alert labels overlapping one task node's interval."""
    if not alerts:
        return []
    from repro.obs.live.engine import alert_labels, overlapping_alerts

    return alert_labels(overlapping_alerts(alerts, task.start, task.end))


def _by_task_id(tasks) -> List[SpanNode]:
    return sorted(tasks, key=lambda t: t.label)


def _profile_phase(
    stage: SpanNode,
    phase: SpanNode,
    straggler_threshold: float,
    alerts: Optional[List[dict]],
) -> Optional[PhaseProfile]:
    """One phase node's profile (None when no attempt completed)."""
    waves = []
    members: List[SpanNode] = []
    stragglers: List[Straggler] = []
    for wave in phase.children:
        batch = _by_task_id(t for t in wave.children if t.name == "task")
        if not batch:
            continue
        members.extend(batch)
        durs = [t.dur for t in batch]
        wave_median = median(durs)
        waves.append(
            WaveProfile(
                wave=wave.ident[0],
                tasks=len(batch),
                mean=sum(durs) / len(durs),
                median=wave_median,
                p95=_percentile(durs, 0.95),
                max=max(durs),
                cv=coefficient_of_variation(durs),
            )
        )
        if len(batch) < 2 or wave_median <= 0:
            continue
        for t in batch:
            if t.dur <= straggler_threshold * wave_median:
                continue
            cause, evidence = _attribute_cause(
                t, [p for p in batch if p is not t]
            )
            stragglers.append(
                Straggler(
                    task=t.label,
                    track=t.track,
                    wave=wave.ident[0],
                    duration=t.dur,
                    wave_median=wave_median,
                    slowdown=t.dur / wave_median,
                    cause=cause,
                    evidence=evidence,
                    alerts=_alert_labels(t, alerts),
                )
            )
        # Killed primaries never ran to completion; judge their
        # *projected* duration against the wave of completed peers
        # (which includes the winning backup's attempt).
        for t in _by_task_id(
            t
            for t in wave.children
            if t.name == "task.killed" and t.args.get("role") == "primary"
        ):
            projected = float(t.args.get("projected_dur", 0.0))
            if projected <= straggler_threshold * wave_median:
                continue
            stragglers.append(
                Straggler(
                    task=t.label,
                    track=t.track,
                    wave=wave.ident[0],
                    duration=projected,
                    wave_median=wave_median,
                    slowdown=projected / wave_median,
                    cause="mitigated-by-speculation",
                    evidence={"projected.seconds": (projected, wave_median)},
                    alerts=_alert_labels(t, alerts),
                )
            )
    if not waves:
        return None
    stragglers.sort(key=lambda s: (-s.slowdown, s.task))
    phase_inputs = [
        t.input_bytes
        for t in _by_task_id(members)
        if t.input_bytes is not None
    ]
    return PhaseProfile(
        stage=stage.label,
        kind=phase.ident[0],
        attempt=stage.ident[1],
        tasks=len(members),
        waves=waves,
        input_gini=gini(phase_inputs),
        input_cv=coefficient_of_variation(phase_inputs),
        stragglers=stragglers,
    )


def phase_profiles(
    spans: List[dict],
    straggler_threshold: float = DEFAULT_STRAGGLER_THRESHOLD,
    alerts: Optional[List[dict]] = None,
) -> List[PhaseProfile]:
    """Profile every phase node of the run's span tree that completed
    a task, in deterministic (stage, kind, attempt) order -- a replanned
    stage's attempts ran under different plans and are never pooled.
    Each flagged straggler is annotated with the live SLO alerts that
    overlapped it when an alert timeline is given."""
    profiles = []
    for job in build_forest(spans):
        for stage in job.children:
            for phase in stage.children:
                profile = _profile_phase(
                    stage, phase, straggler_threshold, alerts
                )
                if profile is not None:
                    profiles.append(profile)
    profiles.sort(key=lambda p: (p.stage, p.kind, p.attempt))
    return profiles


# ----------------------------------------------------------------------
def render(profiles: List[PhaseProfile], top_k: int = 5) -> List[str]:
    if not profiles:
        return ["no task spans in trace"]
    lines: List[str] = []
    for p in profiles:
        rerun = f" [attempt {p.attempt}]" if p.attempt else ""
        lines.append(
            f"{p.stage} {p.kind}{rerun}: {p.tasks} task(s), "
            f"input skew gini={p.input_gini:.3f} cv={p.input_cv:.3f}"
        )
        for w in p.waves:
            lines.append(
                f"  wave {w.wave}: n={w.tasks} mean={w.mean:.3f}s "
                f"median={w.median:.3f}s p95={w.p95:.3f}s max={w.max:.3f}s "
                f"cv={w.cv:.3f}"
            )
        if p.stragglers:
            for s in p.stragglers[:top_k]:
                alerts = f" [ALERT {', '.join(s.alerts)}]" if s.alerts else ""
                lines.append(
                    f"  straggler {s.task} on {s.track}: {s.duration:.3f}s "
                    f"({s.slowdown:.2f}x wave median) -- {s.cause}{alerts}"
                )
            if len(p.stragglers) > top_k:
                lines.append(
                    f"  ... {len(p.stragglers) - top_k} more straggler(s)"
                )
        else:
            lines.append("  no stragglers flagged")
    return lines


def slowest_lookups(spans: List[dict]) -> List[str]:
    """The run's slowest ``lookup`` / ``lookup.batch`` / ``index.fetch``
    spans by simulated duration (subject to the per-task detail cap)."""
    lookups = [
        s for s in spans if s["name"] in ("lookup", "lookup.batch", "index.fetch")
    ]
    if not lookups:
        return ["no lookup spans in trace (detail may be capped or untraced)"]
    lookups.sort(key=lambda s: s["dur"], reverse=True)
    lines = [
        f"top {min(SLOWEST_LOOKUPS, len(lookups))} of {len(lookups)} "
        f"lookup span(s):"
    ]
    for s in lookups[:SLOWEST_LOOKUPS]:
        extras = ", ".join(
            f"{k}={v}"
            for k, v in sorted(s["args"].items())
            if k not in ("depth",)
        )
        lines.append(
            f"  {s['name']} {s['dur'] * 1e3:.3f}ms @ t={s['start']:.3f}s"
            f" on {s['track']}" + (f" ({extras})" if extras else "")
        )
    return lines
