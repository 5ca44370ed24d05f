"""Differential trace analysis: two runs, one attributed delta.

``python -m repro.obs.analysis diff OLD NEW`` aligns two traced runs
structurally (:mod:`repro.obs.analysis.align` -- by names and indices,
never by timestamps) and attributes the total simulated-time delta
hierarchically, job -> stage -> phase -> wave -> task -> op, so every
second of the delta lands on the deepest level that actually differs.

The attribution is exact by construction. At each level the parent's
measure tiles into identified child measures plus an explicit residual:

* a *job* is the unit of total time (the diff total is the sum of job
  durations -- jobs can overlap in simulated time, e.g. a profiling
  run and its optimized run, so a makespan would under-count);
* *stages* and *phases* are driver-sequential, so their durations tile
  the parent directly; the residual is the driver/startup gap;
* a *wave*'s measure is its **frontier increment**: how far this
  wave's completion pushed the phase's running-max end time. Shadowed
  waves (fully inside an earlier straggler's window) measure 0; the
  increments plus the phase tail telescope to the phase duration;
* a matched wave's increment window is tiled along the **binding
  slot's chain** -- the tasks occupying the frontier-setting slot
  inside the window -- so a task's contribution is the window time it
  actually bound, and scheduling slack lands in an explicit
  ``wave.schedule`` residual;
* a fully-window-covered matched task's delta splits once more into
  per-op seconds from the task span's exact ``op_totals`` aggregates
  (top-level ops only; nested detail would double-count), with the
  uninstrumented remainder as ``compute``.

Spans present in only one run -- speculation backups, dynamic-replan
stage re-runs, added/killed tasks -- are reported as explicit added or
removed contributors: weighted by their tiled measure when they sit on
a binding chain, listed at zero weight ("off-frontier") when they ran
in parallel slack and did not move the clock. Either way they never
silently skew a parent's residual.

Invariants (pinned by the self-consistency suites):

* ``diff(run, run)`` is exactly ``0.0`` at every level -- identical
  inputs produce identical measures, and every residual is a
  difference of equal floats;
* on any pair, the contributors sum to the total simulated-time delta
  to within 1e-9 (each residual is computed as a remainder, so the
  telescoping cannot leak).

On top of the span diff: per-phase ``op_totals`` work deltas
(compute / lookup / shuffle / io / build task-seconds -- *work*, not
makespan), per-job counter-group deltas (cache / reuse / batch /
fault / spec / route / build / lookup / task), an **audit diff**
listing every Algorithm-1 evaluation whose verdict flipped with the
Eq 1-4 cost tables side-by-side and the single largest moved Table-1
term named, and an alert-timeline diff (fired / cleared / duration per
SLO rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.analysis.align import AlignedNode, align_forests, job_name_map
from repro.obs.analysis.loader import (
    OP_BUCKETS,
    Result,
    SpanNode,
    TraceArtifacts,
    job_nodes,
    load_artifacts,
    op_totals,
    task_buckets,
)

_EPS = 1e-9
_NO_OP = (0.0, 0.0)  # (count, seconds) of an op a task never ran


# ----------------------------------------------------------------------
# Result dataclasses
# ----------------------------------------------------------------------
@dataclass
class Contributor(Result):
    """One attributed piece of the simulated-time delta."""

    level: str  # job | stage | phase | wave | task | op
    kind: str  # duration | gap | tail | schedule | window | compute |
    #            op | added | removed | added-offpath | removed-offpath
    delta: float
    old_seconds: Optional[float]
    new_seconds: Optional[float]
    job: str = ""
    stage: str = ""
    phase: str = ""
    wave: Optional[int] = None
    task: str = ""
    op: str = ""
    note: str = ""
    #: Slot tracks (``host/kindN``) of the underlying task span(s); set
    #: for task/op-level contributors so slow-host attribution is
    #: checkable ("the improvement came off node05").
    old_track: str = ""
    new_track: str = ""

    def path_label(self) -> str:
        parts = [self.job]
        if self.stage:
            parts.append(self.stage)
        if self.phase:
            parts.append(self.phase)
        if self.wave is not None:
            parts.append(f"wave {self.wave}")
        if self.task:
            parts.append(self.task)
        if self.op:
            parts.append(f"op {self.op}")
        return " / ".join(p for p in parts if p)


@dataclass
class PhaseWorkDelta(Result):
    """Per-phase op_totals work deltas (task-seconds, not makespan)."""

    job: str
    stage: str
    phase: str
    tasks_old: int
    tasks_new: int
    buckets: Dict[str, Tuple[float, float]]  # bucket -> (old, new)

    def deltas(self) -> Dict[str, float]:
        return {b: n - o for b, (o, n) in self.buckets.items()}

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["buckets"] = {
            b: {"old": o, "new": n, "delta": n - o}
            for b, (o, n) in self.buckets.items()
        }
        return out


@dataclass
class CounterDelta(Result):
    job: str
    group: str
    name: str
    old: Optional[float]
    new: Optional[float]

    _derived = ("delta",)

    @property
    def delta(self) -> Optional[float]:
        if self.old is None or self.new is None:
            return None
        return self.new - self.old


@dataclass
class AuditFlip(Result):
    """One matched Algorithm-1 evaluation whose verdict flipped."""

    job: str
    phase: str
    index_in_phase: int
    old_verdict: str
    new_verdict: str
    old_sim_time: float
    new_sim_time: float
    old_plan: Optional[str]
    new_plan: Optional[str]
    #: operator -> index -> strategy -> (old cost, new cost)
    cost_tables: Dict[str, Dict[str, Dict[str, Tuple[Optional[float], Optional[float]]]]]
    #: "operator[index].term old -> new" for the single largest
    #: relative move among env / sizes / Table-1 samples.
    largest_moved_term: str


@dataclass
class AuditDiff(Result):
    evaluations_old: int
    evaluations_new: int
    flips: List[AuditFlip] = field(default_factory=list)
    #: Evaluations with no counterpart: (side, job, phase, verdict, t).
    unmatched: List[Tuple[str, str, str, str, float]] = field(
        default_factory=list
    )

    @property
    def differs(self) -> bool:
        return bool(self.flips or self.unmatched)


@dataclass
class AlertDelta(Result):
    """One SLO rule whose alert timeline differs between the runs."""

    rule: str
    fired_old: int
    fired_new: int
    duration_old: float
    duration_new: float
    open_old: int
    open_new: int


@dataclass
class ArtifactDiff(Result):
    """The full diff of one aligned artifact pair."""

    base_old: str
    base_new: str
    total_old: float
    total_new: float
    contributors: List[Contributor]
    phase_work: List[PhaseWorkDelta]
    counters: List[CounterDelta]
    audit: AuditDiff
    alerts: List[AlertDelta]

    _derived = (
        "total_delta", "attributed_delta", "identical", "max_abs_by_level",
    )

    @property
    def total_delta(self) -> float:
        return self.total_new - self.total_old

    @property
    def attributed_delta(self) -> float:
        return sum(c.delta for c in self.contributors)

    def max_abs_by_level(self) -> Dict[str, float]:
        """Largest |contributor delta| per hierarchy level (0.0 for a
        level with no contributors) -- the "exactly zero at every
        level" check of the self-consistency suite."""
        out = {lvl: 0.0 for lvl in ("job", "stage", "phase", "wave", "task", "op")}
        for c in self.contributors:
            out[c.level] = max(out.get(c.level, 0.0), abs(c.delta))
        return out

    @property
    def identical(self) -> bool:
        return (
            self.total_old == self.total_new
            and all(
                c.delta == 0.0 and c.kind not in _STRUCTURAL_KINDS
                for c in self.contributors
            )
            and not self.counters
            and not self.audit.differs
            and not self.alerts
        )

    def ranked(self, top: Optional[int] = None, coverage: float = 0.90):
        """Contributors by |delta| descending, cut at the first prefix
        covering ``coverage`` of the total absolute mass (or ``top``
        entries when given). Returns ``(shown, covered_fraction)``."""
        shown, covered, _moved = self._ranked(top, coverage)
        return shown, covered

    def _ranked(self, top: Optional[int], coverage: float = 0.90):
        """:meth:`ranked` plus how many contributors moved at all."""
        nonzero = [c for c in self.contributors if c.delta != 0.0]
        nonzero.sort(key=lambda c: (-abs(c.delta), c.path_label(), c.kind))
        mass = sum(abs(c.delta) for c in nonzero)
        if top is not None:
            shown = nonzero[:top]
        else:
            shown, acc = [], 0.0
            for c in nonzero:
                shown.append(c)
                acc += abs(c.delta)
                if mass and acc / mass >= coverage:
                    break
        covered = (
            sum(abs(c.delta) for c in shown) / mass if mass else 1.0
        )
        return shown, covered, len(nonzero)

    def structure_changes(self) -> List[Contributor]:
        return [c for c in self.contributors if c.kind in _STRUCTURAL_KINDS]


_STRUCTURAL_KINDS = frozenset(
    {"added", "removed", "added-offpath", "removed-offpath"}
)


@dataclass
class TraceDiff(Result):
    """A diff over two artifact sets (directories or single exports)."""

    artifacts: List[ArtifactDiff]
    #: Bases present on only one side: (base, total job seconds).
    added_bases: List[Tuple[str, float]] = field(default_factory=list)
    removed_bases: List[Tuple[str, float]] = field(default_factory=list)

    _derived = ("identical", "total_delta")

    @property
    def total_delta(self) -> float:
        return (
            sum(a.total_delta for a in self.artifacts)
            + sum(sec for _, sec in self.added_bases)
            - sum(sec for _, sec in self.removed_bases)
        )

    @property
    def identical(self) -> bool:
        return (
            not self.added_bases
            and not self.removed_bases
            and all(a.identical for a in self.artifacts)
        )


# ----------------------------------------------------------------------
# Span-tree attribution
# ----------------------------------------------------------------------
def _frontiers(
    phase: SpanNode,
) -> Dict[Tuple, Tuple[float, float, float]]:
    """Per wave ident: (increment, window start, window end), where the
    frontier is the running max of wave end times (base: phase start).
    Shadowed waves get increment 0 and an empty window."""
    out: Dict[Tuple, Tuple[float, float, float]] = {}
    frontier = phase.start
    for wave in phase.children:  # already in wave-index order
        end = max(wave.end, frontier)
        out[wave.ident] = (end - frontier, frontier, end)
        frontier = end
    return out


def _binding_task(wave: SpanNode) -> Optional[SpanNode]:
    """The completed task that set this wave's end (ties broken by
    track then id for determinism); falls back to any span kind when a
    wave has no completed task."""
    completed = [t for t in wave.children if t.name == "task"]
    pool = completed or wave.children
    if not pool:
        return None
    return max(pool, key=lambda t: (t.end, t.track, t.label))


def _window_pieces(
    phase: SpanNode, wave: SpanNode, win_start: float, win_end: float
) -> Tuple[Dict[Tuple, Tuple[float, SpanNode, bool]], set]:
    """Tile ``[win_start, win_end]`` along the binding slot's chain.

    Returns ``(pieces, used_node_ids)`` where pieces maps ``(task short
    id, span name)`` to ``(overlap seconds, task node, fully-covered)``.
    Seconds over the same key aggregate (crash attempts re-using a
    slot), with ``fully-covered`` true only when the key's single task
    lies entirely inside the window; ``used_node_ids`` holds ``id()`` of
    every task node that tiled any window time (so off-frontier
    reporting can skip exactly those).
    """
    if win_end - win_start <= _EPS:
        return {}, set()
    binding = _binding_task(wave)
    if binding is None:
        return {}, set()
    track = binding.track
    chain = sorted(
        (
            t
            for w in phase.children
            for t in w.children
            if t.track == track
            and t.end > win_start + _EPS
            and t.start < win_end - _EPS
        ),
        key=lambda t: (t.start, t.label, t.name),
    )
    pieces: Dict[Tuple, Tuple[float, SpanNode, bool]] = {}
    used: set = set()
    for t in chain:
        overlap = min(t.end, win_end) - max(t.start, win_start)
        if overlap <= 0.0:
            continue
        key = (t.ident[0], t.ident[1])
        full = (
            t.start >= win_start - _EPS
            and t.end <= win_end + _EPS
            and abs(overlap - t.duration) <= _EPS
        )
        if key in pieces:
            prev_sec, prev_node, _ = pieces[key]
            pieces[key] = (prev_sec + overlap, prev_node, False)
        else:
            pieces[key] = (overlap, t, full)
        used.add(id(t))
    return pieces, used


def _task_display(key: Tuple) -> str:
    short_id, span_name = key
    return short_id if span_name == "task" else f"{short_id} [{span_name}]"


def _one_sided(
    level: str, status: str, seconds: float, where: dict, track: str = "",
    **extra,
) -> Contributor:
    """A span only one run has (``status``: ``added`` / ``removed``),
    counted at its measure with that sign."""
    removed = status == "removed"
    return Contributor(
        level=level, kind=status, delta=-seconds if removed else seconds,
        old_seconds=seconds if removed else None,
        new_seconds=None if removed else seconds,
        old_track=track if removed else "",
        new_track="" if removed else track,
        **extra, **where,
    )


def _residual(
    level: str, kind: str, note: str, old: float, new: float,
    emitted: float, where: dict,
) -> Contributor:
    """Close one level: whatever of the parent's own delta its children
    did not emit. Computed as a remainder, so the level sums exactly."""
    return Contributor(
        level=level, kind=kind, delta=(new - old) - emitted,
        old_seconds=old, new_seconds=new, note=note, **where,
    )


def _wave_contributors(
    pair: AlignedNode,
    old_phase: SpanNode,
    new_phase: SpanNode,
    old_inc: Tuple[float, float, float],
    new_inc: Tuple[float, float, float],
    where: dict,
) -> List[Contributor]:
    """Contributors of one matched wave, summing exactly to the delta
    of its frontier increment."""
    out: List[Contributor] = []
    old_pieces, old_used = _window_pieces(
        old_phase, pair.old, old_inc[1], old_inc[2]
    )
    new_pieces, new_used = _window_pieces(
        new_phase, pair.new, new_inc[1], new_inc[2]
    )
    emitted = 0.0
    for key in sorted(set(old_pieces) | set(new_pieces)):
        old_entry = old_pieces.get(key)
        new_entry = new_pieces.get(key)
        where_task = dict(where, task=_task_display(key))
        if old_entry is None or new_entry is None:
            seconds, node, _full = old_entry or new_entry
            backup = new_entry and node.args.get("speculative")
            out.append(
                _one_sided(
                    "task", "added" if new_entry else "removed", seconds,
                    where_task, track=node.track,
                    note="speculative backup" if backup else "",
                )
            )
            emitted += out[-1].delta
            continue
        old_sec, old_node, old_full = old_entry
        new_sec, new_node, new_full = new_entry
        where_task.update(old_track=old_node.track, new_track=new_node.track)
        if old_full and new_full and key[1] == "task":
            # Fully-bound matched task: split the duration delta into
            # per-op seconds (top-level ops only) plus the compute
            # remainder.
            old_ops, new_ops = op_totals(old_node), op_totals(new_node)
            op_sum = 0.0
            for op in sorted((set(old_ops) | set(new_ops)) & OP_BUCKETS.keys()):
                o = old_ops.get(op, _NO_OP)[1]
                n = new_ops.get(op, _NO_OP)[1]
                op_sum += n - o
                out.append(
                    Contributor(
                        level="op", kind="op", delta=n - o,
                        old_seconds=o, new_seconds=n, op=op, **where_task,
                    )
                )
            out.append(
                _residual(
                    "task", "compute", "", old_sec, new_sec, op_sum,
                    dict(where_task, op="(compute)"),
                )
            )
        else:
            out.append(
                Contributor(
                    level="task", kind="window", delta=new_sec - old_sec,
                    old_seconds=old_sec, new_seconds=new_sec,
                    note="window-clipped", **where_task,
                )
            )
        # The window delta, not the sum of its op pieces: that sum
        # rounds differently and would move the wave residual's last bits.
        emitted += new_sec - old_sec

    # Off-frontier structural changes: one-sided tasks that never tiled
    # a binding window ran in parallel slack -- explicit, zero-weight.
    # Deduped by node identity, not key: a speculative backup shares
    # its primary's (id, name) key but is a different span.
    tiled_nodes = old_used | new_used
    for child in pair.children:
        node = child.old or child.new
        if child.status == "matched" or id(node) in tiled_nodes:
            continue
        offpath = _one_sided(
            "task", child.status, node.duration, where, track=node.track,
            task=_task_display(child.ident[:2]),
            note="off-frontier (no time impact)"
            + ("; speculative backup" if node.args.get("speculative") else ""),
        )
        offpath.kind += "-offpath"
        offpath.delta = 0.0
        out.append(offpath)

    out.append(
        _residual(
            "wave", "schedule", "scheduling slack / binding-chain idle",
            old_inc[0], new_inc[0], emitted, where,
        )
    )
    return out


#: Parent level -> (its children's ``where`` key, residual kind, note).
#: Stages and phases are driver-sequential and tile their parent by
#: duration; a wave's measure is its frontier increment.
_LEVELS = {
    "job": ("stage", "gap", "driver gap between stages"),
    "stage": ("phase", "gap", "startup / inter-phase gap"),
    "phase": ("wave", "tail", "phase tail past the last frontier"),
}


def _contributors(pair: AlignedNode, where: dict) -> List[Contributor]:
    """Contributors of one matched job, stage or phase, summing exactly
    to its duration delta: every child's (one-sided children at their
    whole measure), then the remainder as this level's residual."""
    child_key, residual_kind, residual_note = _LEVELS[pair.level]
    by_wave = pair.level == "phase"
    if by_wave:
        old_fronts, new_fronts = _frontiers(pair.old), _frontiers(pair.new)
    out: List[Contributor] = []
    emitted = 0.0
    for child in pair.children:
        if by_wave:
            label = child.ident[0]
        else:
            label = child.label or ("(main)" if child_key == "stage" else "")
        child_where = dict(where, **{child_key: label})
        if child.status != "matched":
            if by_wave:
                fronts = old_fronts if child.old else new_fronts
                seconds = fronts[child.ident][0]
            else:
                seconds = (child.old or child.new).duration
            replan = child.level == "stage" and child.ident[1] > 0
            contribs = [
                _one_sided(
                    child.level, child.status, seconds, child_where,
                    note="dynamic replan stage re-run" if replan else "",
                )
            ]
        elif by_wave:
            contribs = _wave_contributors(
                child, pair.old, pair.new,
                old_fronts[child.ident], new_fronts[child.ident], child_where,
            )
        else:
            contribs = _contributors(child, child_where)
        out.extend(contribs)
        # Child by child, each child's own sum: a flat sum over all
        # descendants would associate differently and move last bits.
        emitted += sum(c.delta for c in contribs)
    out.append(
        _residual(
            pair.level, residual_kind, residual_note,
            pair.old.duration, pair.new.duration, emitted, where,
        )
    )
    return out


def span_contributors(aligned_jobs: List[AlignedNode]) -> List[Contributor]:
    """Every contributor of the aligned job forest; sums exactly to
    the delta of total job seconds."""
    out: List[Contributor] = []
    for job in aligned_jobs:
        where = {"job": job.label}
        if job.status == "matched":
            out.extend(_contributors(job, where))
        else:
            node = job.old or job.new
            out.append(_one_sided("job", job.status, node.duration, where))
    return out


# ----------------------------------------------------------------------
# Work (op_totals), counters, audit, alerts
# ----------------------------------------------------------------------
def _phase_work_sides(node: SpanNode) -> Tuple[int, Dict[str, float]]:
    buckets: Dict[str, float] = {}
    tasks = 0
    for wave in node.children:
        for task in wave.children:
            if task.name != "task":
                continue
            tasks += 1
            # Unlike the critical path: ``build`` stays its own bucket,
            # and compute is the unclamped remainder of ``duration``.
            attributed = 0.0
            for bucket, seconds in task_buckets(task):
                buckets[bucket] = buckets.get(bucket, 0.0) + seconds
                attributed += seconds
            buckets["compute"] = (
                buckets.get("compute", 0.0) + task.duration - attributed
            )
    return tasks, buckets


def phase_work_deltas(
    aligned_jobs: List[AlignedNode],
) -> List[PhaseWorkDelta]:
    out: List[PhaseWorkDelta] = []
    for job in aligned_jobs:
        if job.status != "matched":
            continue
        for stage in job.children:
            if stage.status != "matched":
                continue
            for phase in stage.children:
                if phase.status != "matched":
                    continue
                tasks_old, old_b = _phase_work_sides(phase.old)
                tasks_new, new_b = _phase_work_sides(phase.new)
                buckets = {
                    b: (old_b.get(b, 0.0), new_b.get(b, 0.0))
                    for b in sorted(set(old_b) | set(new_b))
                }
                out.append(
                    PhaseWorkDelta(
                        job=job.label,
                        stage=stage.label or "(main)",
                        phase=phase.ident[0],
                        tasks_old=tasks_old,
                        tasks_new=tasks_new,
                        buckets=buckets,
                    )
                )
    return out


def _job_gauges(metrics: dict, jobs: List[str]) -> Dict[str, Dict[str, float]]:
    """``job.<name>.<group>.<counter>`` gauges keyed by job, then by
    ``<group>.<counter>`` (longest job name wins, so a job name that
    prefixes another cannot steal its counters)."""
    out: Dict[str, Dict[str, float]] = {}
    ordered = sorted(jobs, key=len, reverse=True)
    for key, value in (metrics.get("gauges") or {}).items():
        if not key.startswith("job."):
            continue
        rest = key[len("job."):]
        for job in ordered:
            if rest.startswith(job + "."):
                out.setdefault(job, {})[rest[len(job) + 1:]] = float(value)
                break
    return out


def counter_deltas(
    old: TraceArtifacts,
    new: TraceArtifacts,
    job_map: Dict[str, str],
) -> List[CounterDelta]:
    """Per-job counter-group deltas plus global ``trace.*`` counters;
    only quantities that actually differ are returned."""
    out: List[CounterDelta] = []
    old_jobs = _job_gauges(old.metrics, list(job_map))
    new_jobs = _job_gauges(new.metrics, list(job_map.values()))
    for old_job in sorted(job_map):
        new_job = job_map[old_job]
        old_counters = old_jobs.get(old_job, {})
        new_counters = new_jobs.get(new_job, {})
        label = (
            old_job if old_job == new_job else f"{old_job} -> {new_job}"
        )
        for name in sorted(set(old_counters) | set(new_counters)):
            o = old_counters.get(name)
            n = new_counters.get(name)
            if o == n:
                continue
            group, _, short = name.partition(".")
            out.append(CounterDelta(label, group, short, o, n))
    old_global = (old.metrics or {}).get("counters") or {}
    new_global = (new.metrics or {}).get("counters") or {}
    for name in sorted(set(old_global) | set(new_global)):
        o = old_global.get(name)
        n = new_global.get(name)
        if o == n:
            continue
        short = name[len("trace."):] if name.startswith("trace.") else name
        out.append(
            CounterDelta(
                "(global)", "trace", short,
                float(o) if o is not None else None,
                float(n) if n is not None else None,
            )
        )
    return out


def _eval_rows(rows: List[dict]) -> List[dict]:
    """Algorithm-1 evaluations (notes filtered), in seq order -- so
    the audit diff is stable under JSONL row shuffling."""
    evals = [r for r in rows if r.get("verdict") != "note"]
    return sorted(evals, key=lambda r: r.get("seq", 0))


def _term_moves(old_row: dict, new_row: dict) -> List[Tuple[float, str, float, float]]:
    """(relative move, name, old, new) for every numeric pricing term
    the two evaluations share: CostEnv constants, the operator-level
    statistics (``{op}.sizes.{term}``) and the per-index ones
    (``{op}[{j}].{term}``) of each operator's recorded ``stats``."""
    moves: List[Tuple[float, str, float, float]] = []

    def consider(name: str, o: Any, n: Any) -> None:
        if not isinstance(o, (int, float)) or not isinstance(n, (int, float)):
            return
        scale = max(abs(o), abs(n))
        if scale == 0.0:
            return
        moves.append((abs(n - o) / scale, name, float(o), float(n)))

    old_env = old_row.get("env") or {}
    new_env = new_row.get("env") or {}
    for key in sorted(set(old_env) & set(new_env)):
        consider(f"env.{key}", old_env[key], new_env[key])
    old_ops = {o.get("operator"): o for o in old_row.get("operators") or []}
    new_ops = {o.get("operator"): o for o in new_row.get("operators") or []}
    for op in sorted(set(old_ops) & set(new_ops), key=str):
        old_stats = old_ops[op].get("stats") or {}
        new_stats = new_ops[op].get("stats") or {}
        for key in sorted(set(old_stats) & set(new_stats) - {"per_index"}):
            consider(f"{op}.sizes.{key}", old_stats[key], new_stats[key])
        old_per_index = old_stats.get("per_index") or {}
        new_per_index = new_stats.get("per_index") or {}
        for idx in sorted(set(old_per_index) & set(new_per_index), key=str):
            old_terms = old_per_index[idx] or {}
            new_terms = new_per_index[idx] or {}
            for term in sorted(set(old_terms) & set(new_terms)):
                consider(
                    f"{op}[{idx}].{term}", old_terms[term], new_terms[term]
                )
    return moves


def _cost_tables(
    old_row: dict, new_row: dict
) -> Dict[str, Dict[str, Dict[str, Tuple[Optional[float], Optional[float]]]]]:
    tables: Dict[str, Dict[str, Dict[str, Tuple[Optional[float], Optional[float]]]]] = {}
    old_ops = {o.get("operator"): o for o in old_row.get("operators") or []}
    new_ops = {o.get("operator"): o for o in new_row.get("operators") or []}
    for op in sorted(set(old_ops) | set(new_ops), key=str):
        old_strategies = (old_ops.get(op) or {}).get("strategies") or {}
        new_strategies = (new_ops.get(op) or {}).get("strategies") or {}
        per_index: Dict[str, Dict[str, Tuple[Optional[float], Optional[float]]]] = {}
        for idx in sorted(set(old_strategies) | set(new_strategies), key=str):
            old_costs = (old_strategies.get(idx) or {}).get("costs") or {}
            new_costs = (new_strategies.get(idx) or {}).get("costs") or {}
            per_index[str(idx)] = {
                s: (old_costs.get(s), new_costs.get(s))
                for s in sorted(set(old_costs) | set(new_costs))
            }
        tables[str(op)] = per_index
    return tables


def audit_diff(
    old: TraceArtifacts,
    new: TraceArtifacts,
    job_map: Dict[str, str],
) -> AuditDiff:
    """Verdict flips (with Eq 1-4 cost tables and the largest moved
    term) plus unmatched evaluations, matching k-th to k-th within
    each aligned (job, phase)."""
    old_rows = _eval_rows(old.audit_rows)
    new_rows = _eval_rows(new.audit_rows)
    result = AuditDiff(
        evaluations_old=len(old_rows), evaluations_new=len(new_rows)
    )

    def grouped(rows: List[dict], rename: Dict[str, str]):
        groups: Dict[Tuple[str, str], List[dict]] = {}
        for row in rows:
            job = rename.get(str(row.get("job")), str(row.get("job")))
            groups.setdefault((job, str(row.get("phase"))), []).append(row)
        return groups

    old_groups = grouped(old_rows, job_map)
    new_groups = grouped(new_rows, {})
    for key in sorted(set(old_groups) | set(new_groups)):
        olds = old_groups.get(key, [])
        news = new_groups.get(key, [])
        for i, (old_row, new_row) in enumerate(zip(olds, news)):
            if old_row.get("verdict") == new_row.get("verdict"):
                continue
            moves = _term_moves(old_row, new_row)
            if moves:
                _, name, o, n = max(moves, key=lambda m: (m[0], m[1]))
                largest = f"{name}: {o:.6g} -> {n:.6g}"
            else:
                largest = "(no shared numeric terms)"
            result.flips.append(
                AuditFlip(
                    job=key[0],
                    phase=key[1],
                    index_in_phase=i,
                    old_verdict=str(old_row.get("verdict")),
                    new_verdict=str(new_row.get("verdict")),
                    old_sim_time=float(old_row.get("sim_time", 0.0)),
                    new_sim_time=float(new_row.get("sim_time", 0.0)),
                    old_plan=old_row.get("new_plan")
                    or old_row.get("current_plan"),
                    new_plan=new_row.get("new_plan")
                    or new_row.get("current_plan"),
                    cost_tables=_cost_tables(old_row, new_row),
                    largest_moved_term=largest,
                )
            )
        for row in olds[len(news):]:
            result.unmatched.append(
                (
                    "removed", key[0], key[1],
                    str(row.get("verdict")),
                    float(row.get("sim_time", 0.0)),
                )
            )
        for row in news[len(olds):]:
            result.unmatched.append(
                (
                    "added", key[0], key[1],
                    str(row.get("verdict")),
                    float(row.get("sim_time", 0.0)),
                )
            )
    return result


def _alert_stats(rows: List[dict]) -> Dict[str, Tuple[int, float, int]]:
    stats: Dict[str, Tuple[int, float, int]] = {}
    for row in sorted(rows, key=lambda r: (str(r.get("rule")), r.get("seq", 0))):
        rule = str(row.get("rule"))
        fired, duration, open_count = stats.get(rule, (0, 0.0, 0))
        cleared = row.get("cleared_at")
        if isinstance(cleared, (int, float)):
            duration += float(cleared) - float(row.get("fired_at", 0.0))
        else:
            open_count += 1
        stats[rule] = (fired + 1, duration, open_count)
    return stats


def alert_deltas(
    old: TraceArtifacts, new: TraceArtifacts
) -> List[AlertDelta]:
    old_stats = _alert_stats(old.alert_rows)
    new_stats = _alert_stats(new.alert_rows)
    out: List[AlertDelta] = []
    for rule in sorted(set(old_stats) | set(new_stats)):
        fo, do, oo = old_stats.get(rule, (0, 0.0, 0))
        fn, dn, on = new_stats.get(rule, (0, 0.0, 0))
        if (fo, do, oo) != (fn, dn, on):
            out.append(AlertDelta(rule, fo, fn, do, dn, oo, on))
    return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def diff_artifacts(old: TraceArtifacts, new: TraceArtifacts) -> ArtifactDiff:
    """The full differential analysis of one artifact pair."""
    aligned = align_forests(old.spans, new.spans)
    job_map = job_name_map(aligned)
    contributors = span_contributors(aligned)
    total_old = sum(
        n.old.duration for n in aligned if n.old is not None
    )
    total_new = sum(
        n.new.duration for n in aligned if n.new is not None
    )
    return ArtifactDiff(
        base_old=old.base,
        base_new=new.base,
        total_old=total_old,
        total_new=total_new,
        contributors=contributors,
        phase_work=phase_work_deltas(aligned),
        counters=counter_deltas(old, new, job_map),
        audit=audit_diff(old, new, job_map),
        alerts=alert_deltas(old, new),
    )


def _pair_artifact_sets(
    olds: List[TraceArtifacts], news: List[TraceArtifacts]
) -> Tuple[
    List[Tuple[TraceArtifacts, TraceArtifacts]],
    List[TraceArtifacts],
    List[TraceArtifacts],
]:
    """Pair two artifact sets by base name. When each side has the
    same number of unmatched bases, the leftovers pair positionally in
    sorted base order (diffing two variant exports whose labels embed
    the variant, e.g. ``slow-off-cache`` vs ``slow-on-cache``);
    otherwise any guess would be arbitrary, so every leftover is
    reported added/removed."""
    old_by_base = {a.base: a for a in olds}
    new_by_base = {a.base: a for a in news}
    pairs = [
        (old_by_base[b], new_by_base[b])
        for b in sorted(set(old_by_base) & set(new_by_base))
    ]
    left_old = sorted(
        (a for a in olds if a.base not in new_by_base), key=lambda a: a.base
    )
    left_new = sorted(
        (a for a in news if a.base not in old_by_base), key=lambda a: a.base
    )
    if left_old and len(left_old) == len(left_new):
        pairs.extend(zip(left_old, left_new))
        left_old, left_new = [], []
    return pairs, left_new, left_old


def _job_seconds(artifact: TraceArtifacts) -> float:
    return sum(job.dur for job in job_nodes(artifact))


def diff_sets(
    olds: List[TraceArtifacts], news: List[TraceArtifacts]
) -> TraceDiff:
    pairs, added, removed = _pair_artifact_sets(olds, news)
    return TraceDiff(
        artifacts=[diff_artifacts(o, n) for o, n in pairs],
        added_bases=[(a.base, _job_seconds(a)) for a in added],
        removed_bases=[(a.base, _job_seconds(a)) for a in removed],
    )


def diff_paths(old_path: str, new_path: str) -> TraceDiff:
    """Diff two exports or directories of exports (the CLI entry)."""
    return diff_sets(load_artifacts(old_path), load_artifacts(new_path))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_seconds(value: Optional[float]) -> str:
    return "absent" if value is None else f"{value:.6g}s"


def render_artifact(
    diff: ArtifactDiff, top: Optional[int] = None
) -> List[str]:
    lines: List[str] = []
    pair = (
        diff.base_old
        if diff.base_old == diff.base_new
        else f"{diff.base_old} -> {diff.base_new}"
    )
    lines.append(f"=== diff {pair} ===")
    lines.append(
        f"total: {diff.total_old:.6f}s -> {diff.total_new:.6f}s "
        f"(delta {diff.total_delta:+.6f}s, attributed "
        f"{diff.attributed_delta:+.6f}s)"
    )
    if diff.identical:
        lines.append("  identical: zero delta at every level")
        return lines
    shown, covered, moved = diff._ranked(top)
    if shown:
        lines.append(
            f"top contributors ({len(shown)} of {moved}, "
            f"covering {covered:.1%} of the attributed mass):"
        )
        for c in shown:
            note = f" ({c.note})" if c.note else ""
            lines.append(
                f"  {c.delta:+10.6f}s  [{c.level}/{c.kind}] "
                f"{c.path_label()}: "
                f"{_fmt_seconds(c.old_seconds)} -> "
                f"{_fmt_seconds(c.new_seconds)}{note}"
            )
    structure = diff.structure_changes()
    if structure:
        lines.append(f"structure changes ({len(structure)}):")
        for c in structure[:20]:
            side = "added" if c.kind.startswith("added") else "removed"
            seconds = c.new_seconds if side == "added" else c.old_seconds
            note = f" ({c.note})" if c.note else ""
            lines.append(
                f"  {side:>7s} {c.level} {c.path_label()} "
                f"[{_fmt_seconds(seconds)}]{note}"
            )
        if len(structure) > 20:
            lines.append(f"  ... {len(structure) - 20} more")
    moved_work = [
        (p, d)
        for p in diff.phase_work
        for d in [p.deltas()]
        if any(v != 0.0 for v in d.values())
    ]
    if moved_work:
        lines.append("phase work deltas (task-seconds, not makespan):")
        for p, deltas in moved_work:
            buckets = ", ".join(
                f"{b} {v:+.4f}s"
                for b, v in sorted(deltas.items(), key=lambda kv: -abs(kv[1]))
                if v != 0.0
            )
            tasks = (
                f", tasks {p.tasks_old} -> {p.tasks_new}"
                if p.tasks_old != p.tasks_new
                else ""
            )
            lines.append(
                f"  {p.job} / {p.stage} / {p.phase}: {buckets}{tasks}"
            )
    if diff.counters:
        lines.append(f"counter drift ({len(diff.counters)} counter(s)):")
        for c in diff.counters[:25]:
            lines.append(
                f"  {c.job} {c.group}.{c.name}: "
                f"{c.old!r} -> {c.new!r}"
            )
        if len(diff.counters) > 25:
            lines.append(f"  ... {len(diff.counters) - 25} more")
    if diff.audit.differs:
        lines.append(
            f"audit diff: {diff.audit.evaluations_old} -> "
            f"{diff.audit.evaluations_new} evaluation(s), "
            f"{len(diff.audit.flips)} verdict flip(s), "
            f"{len(diff.audit.unmatched)} unmatched"
        )
        for flip in diff.audit.flips:
            lines.append(
                f"  {flip.job} {flip.phase}[{flip.index_in_phase}]: "
                f"{flip.old_verdict} -> {flip.new_verdict} "
                f"(t {flip.old_sim_time:.3f}s -> {flip.new_sim_time:.3f}s, "
                f"plan {flip.old_plan} -> {flip.new_plan})"
            )
            lines.append(
                f"    largest moved term: {flip.largest_moved_term}"
            )
            for op, indexes in sorted(flip.cost_tables.items()):
                for idx, table in sorted(indexes.items()):
                    cells = ", ".join(
                        f"{s} {_fmt_cost(o)}|{_fmt_cost(n)}"
                        for s, (o, n) in sorted(table.items())
                    )
                    lines.append(f"    {op}[{idx}] old|new: {cells}")
        for side, job, phase, verdict, t in diff.audit.unmatched:
            lines.append(
                f"  {side} evaluation: {job} {phase}@t={t:.3f}s ({verdict})"
            )
    if diff.alerts:
        lines.append("alert timeline diff:")
        for a in diff.alerts:
            lines.append(
                f"  {a.rule}: fired {a.fired_old} -> {a.fired_new}, "
                f"duration {a.duration_old:.3f}s -> {a.duration_new:.3f}s"
                + (
                    f", open {a.open_old} -> {a.open_new}"
                    if (a.open_old or a.open_new)
                    else ""
                )
            )
    return lines


def _fmt_cost(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4g}"


def render(diff: TraceDiff, top: Optional[int] = None) -> List[str]:
    lines: List[str] = []
    for artifact in diff.artifacts:
        lines.extend(render_artifact(artifact, top=top))
    for base, seconds in diff.removed_bases:
        lines.append(f"=== removed artifact {base} ({seconds:.6f}s) ===")
    for base, seconds in diff.added_bases:
        lines.append(f"=== added artifact {base} ({seconds:.6f}s) ===")
    verdict = "IDENTICAL" if diff.identical else "DIFFERS"
    lines.append(
        f"{verdict}: {len(diff.artifacts)} artifact pair(s), "
        f"total delta {diff.total_delta:+.6f}s"
    )
    return lines
