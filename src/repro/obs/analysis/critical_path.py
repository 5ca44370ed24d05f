"""Per-job critical-path extraction with exact time accounting.

A simulated EFind job ends when its last stage's last phase's slowest
slot finishes, so the chain that *bounds* completion time is concrete:

    job -> stages (sequential) -> phases (map, reduce) ->
    the task slot whose last task ends the phase -> that slot's tasks

The extractor walks that chain and tiles the job's whole ``[start,
end]`` interval with contiguous :class:`PathSegment`\\ s -- startup
gaps, tasks (including crashed attempts occupying the slot), and slot
idle time -- so the segments always sum to exactly the job's simulated
duration (the 100%-accounting invariant the tests pin).

Each task segment carries a per-op time attribution (compute vs index
lookup vs shuffle vs io), taken from the exact ``op_totals`` aggregates
on the task span (never capped), with the uninstrumented remainder
reported as ``compute``. Each phase also reports *what-if slack*: the
time saved if every wave's slowest task had run at that wave's median
duration -- the headroom straggler mitigation could recover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.analysis.loader import (
    Result,
    SpanNode,
    build_forest,
    task_buckets,
)
from repro.obs.metrics import median

_EPS = 1e-9


@dataclass
class PathSegment(Result):
    """One contiguous piece of a job's critical path."""

    kind: str  # "startup" | "task" | "task.crash" | "slot.idle" | ...
    name: str
    start: float
    end: float
    stage: str = ""
    phase: str = ""  # "map" | "reduce" | ""
    wave: Optional[int] = None
    track: str = ""
    #: bucket -> seconds, summing to the segment duration (tasks only).
    attribution: Dict[str, float] = field(default_factory=dict)
    #: ``rule(severity)`` labels of live SLO alerts whose firing window
    #: overlapped this segment (empty without an alert timeline).
    alerts: List[str] = field(default_factory=list)

    _derived = ("duration",)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PhaseSummary(Result):
    """Aggregates for one phase on the critical path."""

    stage: str
    kind: str  # "map" | "reduce"
    start: float
    end: float
    tasks_on_path: int
    tasks_total: int
    waves: int
    attribution: Dict[str, float]
    #: per wave: slowest-minus-median task duration; summed headroom.
    whatif_wave_slack: Dict[int, float]

    _derived = ("duration", "whatif_total_slack")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def whatif_total_slack(self) -> float:
        return sum(self.whatif_wave_slack.values())


@dataclass
class JobCriticalPath(Result):
    """The full critical path of one depth-0 EFind job span."""

    job: str
    start: float
    end: float
    segments: List[PathSegment]
    phases: List[PhaseSummary]

    _derived = ("duration", "accounted", "attribution")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def accounted(self) -> float:
        return sum(s.duration for s in self.segments)

    def attribution(self) -> Dict[str, float]:
        """Whole-job seconds per bucket (non-task segments count under
        their segment kind)."""
        out: Dict[str, float] = {}
        for seg in self.segments:
            if seg.attribution:
                for bucket, seconds in seg.attribution.items():
                    out[bucket] = out.get(bucket, 0.0) + seconds
            else:
                out[seg.kind] = out.get(seg.kind, 0.0) + seg.duration
        return out


# ----------------------------------------------------------------------
def task_attribution(task: SpanNode) -> Dict[str, float]:
    """Bucketed seconds for one task node, exact via ``op_totals``;
    the uninstrumented remainder (startup, chain CPU, sort -- and, on
    the path, the build piggyback) is ``compute``."""
    out: Dict[str, float] = {}
    attributed = 0.0
    for bucket, seconds in task_buckets(task):
        if bucket == "build":
            continue
        out[bucket] = out.get(bucket, 0.0) + seconds
        attributed += seconds
    out["compute"] = max(0.0, task.dur - attributed)
    return out


def _walk_phase(
    stage: SpanNode, phase: SpanNode, segments: List[PathSegment]
) -> PhaseSummary:
    """Append the phase's critical chain to ``segments`` (tiling
    ``[phase.start, phase.end]`` exactly) and summarize it."""
    kind = phase.ident[0]
    cursor = phase.start
    mine = [task for wave in phase.children for task in wave.children]
    attribution: Dict[str, float] = {}
    on_path = 0
    if mine:
        # The phase ends when its last slot finishes; that slot's tasks
        # (and crashed attempts) are the binding chain.
        last = max(mine, key=lambda t: (t.end, t.track))
        chain = sorted(
            (t for t in mine if t.track == last.track), key=lambda t: t.start
        )
        for t in chain:
            if t.start > cursor + _EPS:
                seg = PathSegment(
                    "slot.idle", "slot idle", cursor, t.start,
                    stage=stage.label, phase=kind, track=last.track,
                )
                segments.append(seg)
                attribution["slot.idle"] = (
                    attribution.get("slot.idle", 0.0) + seg.duration
                )
            # Crashed attempts and speculatively-killed copies really
            # occupied their slot until the crash/kill, so they tile as
            # their own segment kinds rather than as normal tasks.
            seg_kind = (
                t.name if t.name in ("task.crash", "task.killed") else "task"
            )
            seg = PathSegment(
                seg_kind,
                t.label or t.name,
                t.start,
                t.end,
                stage=stage.label,
                phase=kind,
                wave=t.args.get("wave"),
                track=t.track,
                attribution=(
                    task_attribution(t)
                    if seg_kind == "task"
                    else {seg_kind: t.dur}
                ),
            )
            segments.append(seg)
            on_path += 1
            for bucket, seconds in seg.attribution.items():
                attribution[bucket] = attribution.get(bucket, 0.0) + seconds
            cursor = seg.end
    if phase.end > cursor + _EPS:
        seg = PathSegment(
            "phase.tail", f"{kind} tail", cursor, phase.end,
            stage=stage.label, phase=kind,
        )
        segments.append(seg)
        attribution["phase.tail"] = (
            attribution.get("phase.tail", 0.0) + seg.duration
        )

    # Only completed attempts enter the wave-slack stats: a crashed
    # attempt or a killed speculative copy would double-count its
    # logical task (whose winning attempt is already here).
    slack = {}
    for wave in phase.children:
        durs = [t.dur for t in wave.children if t.name == "task"]
        if durs:
            slack[wave.ident[0]] = max(durs) - median(durs)
    return PhaseSummary(
        stage=stage.label,
        kind=kind,
        start=phase.start,
        end=phase.end,
        tasks_on_path=on_path,
        tasks_total=len(mine),
        waves=len(slack),
        attribution=attribution,
        whatif_wave_slack=slack,
    )


def _annotate_alerts(
    segments: List[PathSegment], alerts: Optional[List[dict]]
) -> None:
    """Stamp each segment with the live SLO alerts whose firing window
    overlapped it (the alert-annotated analysis join)."""
    if not alerts:
        return
    from repro.obs.live.engine import alert_labels, overlapping_alerts

    for seg in segments:
        seg.alerts = alert_labels(
            overlapping_alerts(alerts, seg.start, seg.end)
        )


def job_critical_path(
    job: SpanNode, alerts: Optional[List[dict]] = None
) -> JobCriticalPath:
    """The critical path of one job node, optionally annotated with a
    live run's SLO alert timeline."""
    segments: List[PathSegment] = []
    phases_out: List[PhaseSummary] = []
    cursor = job.start
    for stage in job.children:
        if stage.start > cursor + _EPS:
            segments.append(
                PathSegment("driver.gap", "between stages", cursor,
                            stage.start, stage=stage.label)
            )
            cursor = stage.start
        if not stage.children:
            segments.append(
                PathSegment("stage", stage.label, cursor, stage.end,
                            stage=stage.label)
            )
            cursor = stage.end
            continue
        for phase in stage.children:
            if phase.start > cursor + _EPS:
                segments.append(
                    PathSegment(
                        "startup", "job startup / phase gap", cursor,
                        phase.start, stage=stage.label, phase=phase.ident[0],
                    )
                )
                cursor = phase.start
            phases_out.append(_walk_phase(stage, phase, segments))
            cursor = phase.end
        if stage.end > cursor + _EPS:
            segments.append(
                PathSegment("stage.tail", "stage tail", cursor, stage.end,
                            stage=stage.label)
            )
            cursor = stage.end
    if job.end > cursor + _EPS:
        segments.append(PathSegment("driver.tail", "job tail", cursor, job.end))
    _annotate_alerts(segments, alerts)
    return JobCriticalPath(
        job=job.label, start=job.start, end=job.end,
        segments=segments, phases=phases_out,
    )


def critical_paths(
    spans: List[dict], alerts: Optional[List[dict]] = None
) -> List[JobCriticalPath]:
    """One :class:`JobCriticalPath` per depth-0 job span, in start
    order (ties broken by job name for determinism)."""
    return [job_critical_path(j, alerts=alerts) for j in build_forest(spans)]


# ----------------------------------------------------------------------
def render(path: JobCriticalPath, max_segments: int = 40) -> List[str]:
    """Human-readable report lines for one job's critical path."""
    attribution = path.attribution()
    total = path.duration or 1.0
    attr = ", ".join(
        f"{bucket} {seconds:.3f}s ({seconds / total:.0%})"
        for bucket, seconds in sorted(
            attribution.items(), key=lambda kv: -kv[1]
        )
    )
    lines = [
        f"job {path.job}: {path.duration:.3f}s simulated, "
        f"{path.accounted:.3f}s accounted "
        f"({path.accounted / total:.1%}) across {len(path.segments)} "
        f"segment(s)",
        f"  attribution: {attr}",
    ]
    for phase in path.phases:
        lines.append(
            f"  {phase.stage} {phase.kind}: {phase.duration:.3f}s, "
            f"{phase.tasks_on_path}/{phase.tasks_total} task(s) on path, "
            f"{phase.waves} wave(s), what-if slack "
            f"{phase.whatif_total_slack:.3f}s"
        )
    shown = path.segments[:max_segments]
    for seg in shown:
        detail = ""
        if seg.attribution:
            top = max(seg.attribution.items(), key=lambda kv: kv[1])
            detail = f" (top: {top[0]} {top[1]:.3f}s)"
        wave = f" wave {seg.wave}" if seg.wave is not None else ""
        alerts = f" [ALERT {', '.join(seg.alerts)}]" if seg.alerts else ""
        lines.append(
            f"    {seg.start:8.3f}s +{seg.duration:.3f}s {seg.kind} "
            f"{seg.name}{wave}{detail}{alerts}"
        )
    if len(path.segments) > len(shown):
        lines.append(f"    ... {len(path.segments) - len(shown)} more segment(s)")
    return lines
