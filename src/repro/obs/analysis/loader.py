"""Robust loading of exported observability artifacts.

One traced run exports a set of siblings next to each other (see
:meth:`repro.obs.Observability.export`)::

    <base>.trace.json     Chrome trace_event JSON
    <base>.audit.jsonl    adaptive audit log, one record per line
    <base>.metrics.json   metrics registry snapshot
    <base>.alerts.jsonl   live SLO alert timeline (``--live`` runs only)

The loader finds and parses those sets, raising
:class:`TraceArtifactError` -- with the file and the reason -- instead
of a traceback when a directory is empty, an export was interrupted
mid-write, a file is not the format its name claims, or a row lacks a
field the analyses read (named, with its event index or line). Every
analysis tool and the ``python -m repro.obs`` CLI go through it.

It also builds the one span tree every analysis walks:
:func:`build_forest` turns a run's flat span list into identified
job -> stage -> phase -> wave -> task :class:`SpanNode`\\ s. Nothing else
under :mod:`repro.obs` decides which stage attempt, phase or wave a
task span belongs to. Two more things every analysis shares live beside
it: :func:`task_buckets`, the one reader of a task's op seconds per
:data:`OP_BUCKETS` bucket, and :class:`Result`, the one ``to_dict()``.

========  =====================================================
level      identity within its parent
========  =====================================================
job        EFind job name + occurrence (start-order rank among
           same-named jobs)
stage      JobConf name with the owning job's prefix stripped
           (``""`` for the main stage, ``"/shuffle-head0.0"`` for
           extra-job stages) + occurrence -- a dynamic replan
           re-runs the main stage under the same name, so the
           second attempt is occurrence 1
phase      kind (``map`` / ``reduce``) + occurrence
wave       wave index (``args.wave``)
task       task id with the stage conf prefix stripped
           (``m0007`` / ``r0003``), the span name (``task`` vs
           ``task.crash`` vs ``task.killed``) + occurrence
========  =====================================================

Names alone are ambiguous within one run: a replanned job re-runs a
stage under the same conf name (so task ids repeat across its
attempts), and an Optimized trace holds a profiling job and the
optimized job overlapping from t=0. Parent/child assignment therefore
uses names *and* time containment -- attempts of one job are
sequential, so containment in the parent span disambiguates.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.trace import (
    DEPTH_JOB,
    DEPTH_OP,
    DEPTH_PHASE,
    DEPTH_STAGE,
    DEPTH_TASK,
    DEPTH_WAVE,
)

_EPS = 1e-9


class TraceArtifactError(Exception):
    """An artifact is missing, truncated, or structurally not a trace."""


@dataclass
class TraceArtifacts:
    """One traced run's parsed artifacts."""

    base: str  # export base name, e.g. "Q3-dynamic"
    trace_path: str
    payload: dict  # raw Chrome trace JSON, minus its ``traceEvents``
    spans: List[dict] = field(default_factory=list)
    instants: List[dict] = field(default_factory=list)
    audit_rows: List[dict] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Live-run SLO alerts (``<base>.alerts.jsonl`` rows; empty for a
    #: run recorded without ``--live``).
    alert_rows: List[dict] = field(default_factory=list)

    @property
    def dropped_detail(self) -> int:
        return self.payload.get("otherData", {}).get("dropped_detail", 0)


def find_trace_files(path: str) -> List[str]:
    """Accept one ``*.trace.json`` file or a directory of them."""
    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "*.trace.json")))
    return [path]


def load_json_file(path: str, kind: str) -> Any:
    """Parse one JSON artifact with actionable errors."""
    if not os.path.exists(path):
        raise TraceArtifactError(f"{path}: {kind} file does not exist")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise TraceArtifactError(f"{path}: cannot read {kind}: {exc}") from exc
    if not text.strip():
        raise TraceArtifactError(
            f"{path}: {kind} file is empty (export interrupted?)"
        )
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceArtifactError(
            f"{path}: {kind} is not valid JSON (truncated or partially "
            f"written export?): {exc}"
        ) from exc


#: Per JSONL kind, the row fields the analyses do arithmetic on: present,
#: they must hold a number (a ``null`` there is a malformed row).
_NUMERIC_FIELDS = {"audit": ("sim_time",), "alerts": ("fired_at",)}


def load_jsonl_file(path: str, kind: str) -> List[dict]:
    """Parse one JSONL artifact; a truncated final line, a row that is
    not an object, or a non-number in one of the kind's
    ``_NUMERIC_FIELDS`` is an error."""
    if not os.path.exists(path):
        raise TraceArtifactError(f"{path}: {kind} file does not exist")
    numeric = _NUMERIC_FIELDS.get(kind, ())
    rows: List[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceArtifactError(
                    f"{path}:{lineno}: {kind} line is not valid JSON "
                    f"(truncated export?): {exc}"
                ) from exc
            if not isinstance(row, dict):
                raise TraceArtifactError(
                    f"{path}:{lineno}: {kind} row is "
                    f"{type(row).__name__}, not an object"
                )
            for key in numeric:
                if not isinstance(row.get(key, 0.0), (int, float)):
                    raise TraceArtifactError(
                        f"{path}:{lineno}: {kind} row has {key!r} = "
                        f"{row[key]!r}, not a number"
                    )
            rows.append(row)
    return rows


def extract_spans(payload: dict) -> Tuple[List[dict], List[dict]]:
    """X/i events with seconds-domain ``start``/``dur`` and track names
    resolved from the thread_name metadata.

    Returns ``(spans, instants)``. Each X/i event becomes its row and is
    let go at once, so a load never holds two forms of a span
    (``traceEvents`` keeps the metadata and alert events). Raises
    :class:`TraceArtifactError` when the payload is not a Chrome trace,
    or one of its events lacks a field the analyses read -- here, in the
    loops that visit every event anyway, so nothing downstream meets a
    malformed row.
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise TraceArtifactError(
            "payload has no traceEvents list -- not a Chrome trace export"
        )
    us = 1_000_000.0
    thread_names: Dict[Tuple[int, int], str] = {}
    spans: List[dict] = []
    instants: List[dict] = []
    others: List[Any] = []
    ev: Any = None
    try:
        for ev in events:
            if ev.get("ph") == "M" and ev.get("name") == "thread_name":
                thread_names[(ev["pid"], ev["tid"])] = ev["args"]["name"]
        for i, ev in enumerate(events):
            ph = ev.get("ph")
            if ph == "X":
                rows = spans
            elif ph == "i":
                rows = instants
            else:
                others.append(ev)
                continue
            try:
                args = ev["args"]
            except KeyError:
                args = {}
            depth = args.get("depth", 0)
            row = {
                "name": ev["name"],
                "cat": ev.get("cat", ""),
                "track": thread_names.get((ev["pid"], ev["tid"]), "?"),
                "start": ev["ts"] / us,
                "depth": depth,
                "args": args,
            }
            if depth.__class__ is not int:
                raise TypeError("args.depth is not an integer")
            if rows is spans:
                row["dur"] = ev["dur"] / us
                if depth == DEPTH_TASK:
                    # What :func:`op_totals` will read off this span.
                    for entry in args.get("op_totals", {}).values():
                        float(entry[0]), float(entry[1])
            rows.append(row)
            events[i] = None
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise TraceArtifactError(_event_problem(events, ev, exc)) from exc
    payload["traceEvents"] = others
    return spans, instants


def _event_problem(events: list, ev: Any, exc: Exception) -> str:
    """One line naming the event :func:`extract_spans` could not read
    and the field at fault. Error path only: finding the event's index
    here keeps the counting out of the loops a well-formed trace runs."""
    index = next(i for i, other in enumerate(events) if other is ev)
    if not isinstance(ev, dict):
        return f"traceEvents[{index}] is {type(ev).__name__}, not an object"
    what = f"traceEvents[{index}] ({ev.get('ph')!r} event {ev.get('name')!r})"
    if isinstance(exc, KeyError):
        return f"{what} has no {exc.args[0]!r}"
    for key in ("ts", "dur"):
        if key in ev and not isinstance(ev[key], (int, float)):
            return f"{what} has {key!r} = {ev[key]!r}, not a number"
    args = ev.get("args")
    if isinstance(args, dict) and "depth" in args and type(args["depth"]) is not int:
        return f"{what} has 'args.depth' = {args['depth']!r}, not an integer"
    return (
        f"{what} has malformed 'args' ({type(exc).__name__}: {exc}); "
        f"op_totals entries are [count, seconds]"
    )


def extract_alerts(payload: dict) -> List[dict]:
    """Reconstruct alert rows from the trace's async ``b``/``e`` pairs.

    Fallback for a live trace whose ``alerts.jsonl`` sibling went
    missing: the embedded bands carry rule/severity/metric/state/peak,
    so the analysis join still works (evidence samples only live in the
    jsonl). ``cleared_at`` comes from the matching ``e`` unless the
    band was exported ``state="open"`` (an open alert's ``e`` sits at
    the trace end only to close the band visually).
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return []
    us = 1_000_000.0
    rows: List[dict] = []
    open_rows: Dict[Tuple[str, Any], dict] = {}
    for ev in events:
        if ev.get("cat") != "alert":
            continue
        ph = ev.get("ph")
        key = (str(ev.get("name")), ev.get("id"))
        if ph == "b":
            args = ev.get("args", {})
            row = {
                "seq": ev.get("id"),
                "rule": str(ev.get("name")),
                "severity": args.get("severity"),
                "metric": args.get("metric"),
                "fired_at": ev.get("ts", 0.0) / us,
                "cleared_at": None,
                "state": args.get("state", "open"),
                "peak": args.get("peak"),
            }
            rows.append(row)
            open_rows[key] = row
        elif ph == "e":
            row = open_rows.pop(key, None)
            if row is not None and row["state"] == "cleared":
                row["cleared_at"] = ev.get("ts", 0.0) / us
    return rows


def load_one(trace_path: str) -> TraceArtifacts:
    """Load one export triple by its ``*.trace.json`` path (the audit
    and metrics siblings are found by naming convention; a missing
    sibling is tolerated, a corrupt one is not)."""
    if not trace_path.endswith(".trace.json"):
        raise TraceArtifactError(
            f"{trace_path}: expected a *.trace.json file "
            f"(or a directory of them)"
        )
    payload = load_json_file(trace_path, "trace")
    if not isinstance(payload, dict):
        raise TraceArtifactError(
            f"{trace_path}: trace is {type(payload).__name__}, not an object"
        )
    try:
        spans, instants = extract_spans(payload)
    except TraceArtifactError as exc:
        raise TraceArtifactError(f"{trace_path}: {exc}") from exc

    base = os.path.basename(trace_path)[: -len(".trace.json")]
    audit_path = trace_path[: -len(".trace.json")] + ".audit.jsonl"
    metrics_path = trace_path[: -len(".trace.json")] + ".metrics.json"
    alerts_path = trace_path[: -len(".trace.json")] + ".alerts.jsonl"
    audit_rows = (
        load_jsonl_file(audit_path, "audit") if os.path.exists(audit_path) else []
    )
    metrics = (
        load_json_file(metrics_path, "metrics")
        if os.path.exists(metrics_path)
        else {}
    )
    if metrics and not isinstance(metrics, dict):
        raise TraceArtifactError(
            f"{metrics_path}: metrics is {type(metrics).__name__}, not an object"
        )
    alert_rows = (
        load_jsonl_file(alerts_path, "alerts")
        if os.path.exists(alerts_path)
        else extract_alerts(payload)
    )
    # What is left of the raw event list (metadata, alert bands) now
    # lives in alert_rows and the rows' tracks.
    payload.pop("traceEvents")
    return TraceArtifacts(
        base=base,
        trace_path=trace_path,
        payload=payload,
        spans=spans,
        instants=instants,
        audit_rows=audit_rows,
        metrics=metrics,
        alert_rows=alert_rows,
    )


def load_artifacts(path: str) -> List[TraceArtifacts]:
    """Load every export triple under ``path`` (a ``*.trace.json`` file
    or a directory). An empty or missing directory is an error -- the
    caller asked to analyze traces that are not there."""
    if not os.path.exists(path):
        raise TraceArtifactError(f"{path}: no such file or directory")
    files = find_trace_files(path)
    if not files:
        raise TraceArtifactError(
            f"{path}: no *.trace.json files found (did the traced bench "
            f"run, and with --trace pointing here?)"
        )
    return [load_one(f) for f in files]


# ----------------------------------------------------------------------
# The span tree (one run)
# ----------------------------------------------------------------------
#: Top-level op-span names -> work bucket. These ops charge
#: non-overlapping task time; nested detail (``cache.probe``,
#: ``index.fetch``, ``build.scan_lookup``, retries) overlaps its parent
#: lookup span and is absent so that nothing double-counts.
OP_BUCKETS = {
    "dfs.read": "io",
    "dfs.store": "io",
    "map.spill": "io",
    "shuffle.fetch": "shuffle",
    "shuffle.merge": "shuffle",
    "lookup": "lookup",
    "lookup.batch": "lookup",
    "build.increment": "build",
}

#: Op spans that carry a task's input volume in ``args.bytes``.
_INPUT_OPS = ("dfs.read", "shuffle.fetch")


class Result:
    """Base of every analysis result dataclass; the one serialiser.

    ``to_dict()`` is the dataclass's fields, then the properties /
    methods the class names in ``_derived``. Results nest as dicts,
    tuples become lists and dict keys strings, so the document goes
    straight to ``json.dumps``. A class whose JSON reshapes one field
    overrides ``to_dict`` to patch that key, nothing more.
    """

    _derived: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        for name in self._derived:
            value = getattr(self, name)
            out[name] = _plain(value() if callable(value) else value)
        return out


def _plain(value: Any) -> Any:
    if isinstance(value, Result):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


@dataclass
class SpanNode:
    """One identified span in one run's hierarchy."""

    level: str  # job | stage | phase | wave | task
    ident: Tuple  # identity key within the parent (stable across runs)
    label: str  # display name, taken from this run
    start: float
    end: float
    #: The exported span duration. ``end - start`` (:attr:`duration`,
    #: what tiles a timeline) can differ from it in the last bit;
    #: per-task statistics are taken over the exported value.
    dur: float
    args: dict = field(default_factory=dict)
    name: str = ""  # raw span name (``task`` vs ``task.crash`` ...)
    track: str = ""
    #: Task nodes: bytes moved by the task's own ``dfs.read`` /
    #: ``shuffle.fetch`` op spans (None when it recorded neither).
    input_bytes: Optional[float] = None
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def op_totals(task: SpanNode) -> Dict[str, Tuple[float, float]]:
    """Exact per-op-name ``(count, seconds)`` of one task node, from the
    never-capped ``op_totals`` aggregates on its span."""
    return {
        name: (float(entry[0]), float(entry[1]))
        for name, entry in task.args.get("op_totals", {}).items()
    }


def task_buckets(task: SpanNode) -> List[Tuple[str, float]]:
    """``(bucket, seconds)`` per top-level op of one task node, in
    ``op_totals`` order; what they leave of the task's time is its
    ``compute`` remainder. Pairs rather than per-bucket sums: callers
    add them op by op into their own totals (a task's attributed
    seconds, a phase's work), which keeps every float sum's order."""
    return [
        (OP_BUCKETS[name], seconds)
        for name, (_count, seconds) in op_totals(task).items()
        if name in OP_BUCKETS
    ]


def task_stage(task_id: str) -> str:
    """The stage conf name inside a task id (``<stage conf>-m0007``);
    ``"?"`` for an id without the separator."""
    stage, sep, _index = task_id.rpartition("-")
    return stage if sep else "?"


def stage_suffix(stage_conf: str, job: str) -> str:
    """A stage JobConf name relative to its owning EFind job (``""``
    for the main stage)."""
    if stage_conf == job:
        return ""
    if stage_conf.startswith(job + "/"):
        return stage_conf[len(job):]
    return stage_conf


def _job_of(span: dict) -> str:
    return str(span["args"].get("job", span["name"]))


def _task_id(span: dict) -> str:
    return str(span["args"].get("task", ""))


def _contained(span: dict, start: float, end: float) -> bool:
    return (
        span["start"] >= start - _EPS
        and span["start"] + span["dur"] <= end + _EPS
    )


def _with_occurrence(
    level: str, keyed: List[Tuple[Tuple, dict, str]]
) -> List[SpanNode]:
    """Turn (partial key, span, label) triples -- already sorted in
    start order -- into nodes whose ident carries an occurrence rank,
    so repeated identities (replanned stages, crash attempts sharing a
    task id) stay distinct and order-stable."""
    counts: Dict[Tuple, int] = {}
    nodes: List[SpanNode] = []
    for partial, span, label in keyed:
        occ = counts.get(partial, 0)
        counts[partial] = occ + 1
        nodes.append(
            SpanNode(
                level=level,
                ident=partial + (occ,),
                label=label,
                start=span["start"],
                end=span["start"] + span["dur"],
                dur=span["dur"],
                args=span.get("args", {}),
                name=str(span.get("name", "")),
                track=str(span.get("track", "")),
            )
        )
    return nodes


class _Buckets:
    """One run's spans, bucketed once for the tree build: by depth,
    task attempts by (stage conf, kind), and input ops by (task id,
    track) -- so a phase scans only its own stage's attempts."""

    def __init__(self, spans: List[dict]):
        self.by_depth: Dict[int, List[dict]] = {}
        self.tasks: Dict[Tuple, List[dict]] = {}
        self.input_ops: Dict[Tuple, List[dict]] = {}
        for span in spans:
            self.by_depth.setdefault(span["depth"], []).append(span)
        for task in self.by_depth.get(DEPTH_TASK, ()):
            key = (task_stage(_task_id(task)), task["args"].get("kind"))
            self.tasks.setdefault(key, []).append(task)
        for op in self.by_depth.get(DEPTH_OP, ()):
            if op["name"] in _INPUT_OPS:
                key = (_task_id(op), str(op.get("track", "")))
                self.input_ops.setdefault(key, []).append(op)


def build_forest(spans: List[dict]) -> List[SpanNode]:
    """The identified job/stage/phase/wave/task hierarchy of one run.

    Sorting keys are total (time, then names, then track), so the
    result does not depend on the order of ``spans``.
    """
    buckets = _Buckets(spans)
    jobs = _job_nodes(buckets.by_depth.get(DEPTH_JOB, ()))
    for job_node in jobs:
        job_node.children = _build_stages(job_node, buckets)
    return jobs


def job_nodes(artifact: TraceArtifacts) -> List[SpanNode]:
    """One run's job nodes alone, as :func:`build_forest` orders and
    identifies them but without their subtrees -- all a caller that
    only reads job durations needs."""
    return _job_nodes([s for s in artifact.spans if s["depth"] == DEPTH_JOB])


def _job_nodes(job_spans) -> List[SpanNode]:
    jobs = sorted(job_spans, key=lambda s: (s["start"], _job_of(s)))
    return _with_occurrence(
        "job", [((_job_of(s),), s, _job_of(s)) for s in jobs]
    )


def _build_stages(job: SpanNode, buckets: _Buckets) -> List[SpanNode]:
    """Stage spans belong to EFind job ``J`` when their JobConf name is
    ``J`` itself or ``J/<stage label>`` (the compiler's naming)."""
    job_name = job.label
    stages = sorted(
        (
            s
            for s in buckets.by_depth.get(DEPTH_STAGE, ())
            if _job_of(s) == job_name or _job_of(s).startswith(job_name + "/")
        ),
        key=lambda s: (s["start"], _job_of(s)),
    )
    nodes = _with_occurrence(
        "stage",
        [((stage_suffix(_job_of(s), job_name),), s, _job_of(s)) for s in stages],
    )
    for stage_node in nodes:
        stage_node.children = _build_phases(stage_node, buckets)
    return nodes


def _build_phases(stage: SpanNode, buckets: _Buckets) -> List[SpanNode]:
    stage_conf = stage.label
    phases = sorted(
        (
            s
            for s in buckets.by_depth.get(DEPTH_PHASE, ())
            if _job_of(s) == stage_conf
            and _contained(s, stage.start, stage.end)
        ),
        key=lambda s: (s["start"], str(s["args"].get("kind", s["name"]))),
    )
    nodes = _with_occurrence(
        "phase",
        [
            ((str(s["args"].get("kind", s["name"])),), s,
             str(s["args"].get("kind", s["name"])))
            for s in phases
        ],
    )
    for phase_node in nodes:
        phase_node.children = _build_waves(stage_conf, phase_node, buckets)
    return nodes


def _task_wave(span: dict) -> int:
    return int(span["args"].get("wave", 0))


def _build_waves(
    stage_conf: str, phase: SpanNode, buckets: _Buckets
) -> List[SpanNode]:
    kind = phase.ident[0]
    tasks = sorted(
        (
            s
            for s in buckets.tasks.get((stage_conf, kind), ())
            if _contained(s, phase.start, phase.end)
        ),
        key=lambda s: (
            s["start"],
            _task_id(s),
            str(s.get("name", "")),
            str(s.get("track", "")),
        ),
    )
    wave_spans = {
        _task_wave(s): s
        for s in buckets.by_depth.get(DEPTH_WAVE, ())
        if _job_of(s) == stage_conf
        and s["args"].get("kind") == kind
        and _contained(s, phase.start, phase.end)
    }
    by_wave: Dict[int, List[dict]] = {}
    for task in tasks:
        by_wave.setdefault(_task_wave(task), []).append(task)

    nodes: List[SpanNode] = []
    for wave in sorted(by_wave):
        batch = by_wave[wave]
        wave_span = wave_spans.get(wave)
        if wave_span is not None:
            start = wave_span["start"]
            end = wave_span["start"] + wave_span["dur"]
            dur = wave_span["dur"]
            args = wave_span.get("args", {})
        else:
            # A wave whose every attempt crashed/was killed emits no
            # wave span; synthesize the envelope from its task spans.
            start = min(t["start"] for t in batch)
            end = max(t["start"] + t["dur"] for t in batch)
            dur = end - start
            args = {}
        node = SpanNode(
            level="wave",
            ident=(wave,),
            label=f"{kind}.wave{wave}",
            start=start,
            end=end,
            dur=dur,
            args=args,
        )
        node.children = _with_occurrence(
            "task",
            [
                (
                    (_task_id(t)[len(stage_conf) + 1:], str(t.get("name", ""))),
                    t,
                    _task_id(t),
                )
                for t in batch
            ],
        )
        for task in node.children:
            # Task ids repeat across a replanned job's stage attempts,
            # so an input op is the task's own only inside its window
            # on its slot's track.
            reads = [
                float(op["args"].get("bytes", 0.0))
                for op in buckets.input_ops.get((task.label, task.track), ())
                if task.start - _EPS <= op["start"] <= task.end + _EPS
            ]
            if reads:
                task.input_bytes = sum(reads)
        nodes.append(node)
    return nodes
