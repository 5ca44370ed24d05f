"""Span/event tracing in simulated cluster time.

A :class:`Tracer` records *spans* (named intervals) and *instant
events*, each stamped with simulated seconds and placed on a *track*
(the driver, or one ``host/slotN`` task slot). Nesting is explicit via
``depth`` so exporters and the report tool need no containment
inference:

====== =======================================================
depth   span
====== =======================================================
0       EFind job
1       physical MapReduce stage
2       map / reduce phase
3       task wave
4       task attempt (including crashed attempts)
5       in-task operation (dfs read, shuffle fetch, lookup,
        lookup batch)
6       cache probe / index fetch / retry detail
====== =======================================================

Task internals are first recorded into a :class:`TaskTraceBuffer` in
*task-relative* time (a task's absolute start is only known once the
scheduler commits it), then re-based onto the absolute timeline.

The tracer is read-only with respect to the simulation: it never
charges time, so an attached tracer cannot perturb simulated results.
Without one (``obs=None``), hot paths guard on ``ctx.trace is None``
and the untraced mode costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Canonical depths (see module docstring).
DEPTH_JOB = 0
DEPTH_STAGE = 1
DEPTH_PHASE = 2
DEPTH_WAVE = 3
DEPTH_TASK = 4
DEPTH_OP = 5
DEPTH_DETAIL = 6

#: The driver (job-control) track.
DRIVER_TRACK = "driver"
#: Wave spans live on their own track: waves overlap task spans across
#: slots, so putting them on the driver track would fake containment.
WAVE_TRACK = "driver/waves"


def slot_track(host: str, kind: str, slot_index: int) -> str:
    """Track name of one task slot (shared by runtime and scheduler)."""
    return f"{host}/{kind}{slot_index}"


@dataclass(slots=True)
class Span:
    """One named interval on a track, in simulated seconds."""

    name: str
    cat: str
    track: str
    start: float
    end: float
    depth: int
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class Instant:
    """One point event on a track."""

    name: str
    cat: str
    track: str
    ts: float
    depth: int
    args: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects spans and instant events in simulated time.

    Append order is commit order, and the export keeps it: a live
    session folds :attr:`spans` in this order at its end
    (:mod:`repro.obs.live.fold`), and the fold over the exported
    artifacts reads the same order back from the file.
    """

    def __init__(self, metrics=None, max_task_detail: int = 256):
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.metrics = metrics
        self.max_task_detail = max_task_detail
        self.dropped_detail = 0

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: float,
        depth: int,
        **args: Any,
    ) -> None:
        self.spans.append(Span(name, cat, track, start, end, depth, args))

    def instant(
        self, name: str, cat: str, track: str, ts: float, depth: int, **args: Any
    ) -> None:
        self.instants.append(Instant(name, cat, track, ts, depth, args))

    # ------------------------------------------------------------------
    def task_buffer(self, task_id: str) -> "TaskTraceBuffer":
        """A fresh relative-time buffer for one task attempt."""
        return TaskTraceBuffer(task_id, max_detail=self.max_task_detail)

    def absorb_task(
        self,
        buffer: Optional["TaskTraceBuffer"],
        task_start: float,
        track: str,
    ) -> None:
        """Re-base one task's buffered spans/events onto the absolute
        timeline at ``task_start`` and fold histogram-worthy durations
        into the metrics registry. The buffer's records are the
        tracer's: they move in place, and the buffer is spent.

        Every absorbed span/instant carries ``args.task`` (the owning
        task attempt, stamped as the buffer records it): several jobs
        may share a tracer with overlapping simulated timelines (e.g. a
        profiling run and the optimized run both starting at t=0), so
        offline analysis cannot attribute in-task ops by time
        containment alone.
        """
        if buffer is None:
            return
        spans, instants = buffer.rel_spans, buffer.rel_instants
        for span in spans:
            span.track = track
            span.start += task_start
            span.end += task_start
        for inst in instants:
            inst.track = track
            inst.ts += task_start
        self.spans += spans
        self.instants += instants
        self.dropped_detail += buffer.dropped
        if self.metrics is not None:
            for name, (count, total) in sorted(buffer.totals.items()):
                self.metrics.counter(f"trace.{name}.count").inc(count)
                self.metrics.counter(f"trace.{name}.seconds").inc(total)
            for name, durations in sorted(buffer.observations.items()):
                hist = self.metrics.histogram(f"trace.{name}.latency_s")
                hist.observe_all(durations)

    # ------------------------------------------------------------------
    def max_depth(self) -> int:
        """Deepest recorded nesting level (-1 when empty)."""
        depths = [s.depth for s in self.spans] + [i.depth for i in self.instants]
        return max(depths) if depths else -1

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def spans_in_cat(self, cat: str) -> List[Span]:
        return [s for s in self.spans if s.cat == cat]

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)


#: Span names whose durations feed a latency histogram on absorb.
_HISTOGRAM_NAMES = frozenset({"lookup", "lookup.batch", "index.fetch"})


def _span_recorder(charged: bool):
    """The body ``rel_span`` and ``charged_span`` share, so that either
    records in one frame: count the span into the per-name aggregates,
    keep its detail while the cap allows."""

    def record(
        self, name: str, cat: str, _start: float, _end: float, depth: int, **args: Any
    ) -> None:  # underscored so that no span arg can collide with them
        if charged:
            _start += self.base_offset
            _end += self.base_offset
        duration = _end - _start
        entry = self.totals.get(name)
        if entry is None:
            self.totals[name] = [1, duration]
        else:
            entry[0] += 1
            entry[1] += duration
        if name in _HISTOGRAM_NAMES:
            self.observations.setdefault(name, []).append(duration)
        if len(self.rel_spans) >= self.max_detail:
            self.dropped += 1
        else:
            args.setdefault("task", self.task_id)
            self.rel_spans.append(Span(name, cat, "", _start, _end, depth, args))

    return record


class TaskTraceBuffer:
    """Relative-time span/event storage for one task attempt.

    Two relative coordinate systems:

    * :meth:`rel_span` / :meth:`rel_instant` -- seconds after *task
      start* (used by the runtime, which knows its own offsets);
    * :meth:`charged_span` / :meth:`charged_instant` -- positions on the
      task's *charged-time* cursor (``ctx.charged_time`` snapshots; used
      by the strategy and index layers whose costs all flow through
      ``ctx.charge``). These are shifted by :attr:`base_offset`, which
      the runtime sets to the simulated time consumed before the chain
      runs (task startup + input read, or + shuffle fetch), so charged
      events land inside the task span.

    Each detail item is recorded once, as the :class:`Span` /
    :class:`Instant` the tracer will keep, on a blank track and in
    relative time until :meth:`Tracer.absorb_task` re-bases it.

    Detail is capped at ``max_detail`` recorded items per task to bound
    trace size on large runs; every item still lands in the per-name
    aggregate ``totals`` (and latency ``observations``), and the number
    of dropped detail items is reported on the task span.
    """

    def __init__(self, task_id: str, max_detail: int = 256):
        self.task_id = task_id
        self.max_detail = max_detail
        self.base_offset = 0.0
        self.rel_spans: List[Span] = []
        self.rel_instants: List[Instant] = []
        self.totals: Dict[str, List[float]] = {}
        self.observations: Dict[str, List[float]] = {}
        self.dropped = 0

    # ------------------------------------------------------------------
    rel_span = _span_recorder(charged=False)
    charged_span = _span_recorder(charged=True)

    def rel_instant(
        self, name: str, cat: str, rel_ts: float, depth: int, **args: Any
    ) -> None:
        entry = self.totals.get(name)
        if entry is None:
            self.totals[name] = [1, 0.0]
        else:
            entry[0] += 1
        if name in _HISTOGRAM_NAMES:
            self.observations.setdefault(name, []).append(0.0)
        if len(self.rel_instants) >= self.max_detail:
            self.dropped += 1
            return
        args.setdefault("task", self.task_id)
        self.rel_instants.append(Instant(name, cat, "", rel_ts, depth, args))

    def charged_instant(
        self, name: str, cat: str, charged_ts: float, depth: int, **args: Any
    ) -> None:
        self.rel_instant(name, cat, self.base_offset + charged_ts, depth, **args)

    # ------------------------------------------------------------------
    def scale(self, factor: float) -> None:
        """Stretch every relative coordinate, aggregate total, and
        latency observation by ``factor``.

        The runtime records a task's internal profile in *raw* (un-
        straggled) time, then learns the attempt's final duration only
        at commit: a per-host straggler factor stretches it, and a
        speculative backup replaces it with the backup host's duration.
        Scaling the buffer by ``final / raw`` keeps the profile's shape
        while making its spans and ``op_totals`` sum consistently with
        the emitted task span, so offline attribution stays exact.
        """
        if factor == 1.0:
            return
        if factor < 0.0:
            raise ValueError("trace scale factor cannot be negative")
        self.base_offset *= factor
        for span in self.rel_spans:
            span.start *= factor
            span.end *= factor
        for inst in self.rel_instants:
            inst.ts *= factor
        for entry in self.totals.values():
            entry[1] *= factor
        self.observations = {
            name: [d * factor for d in durations]
            for name, durations in self.observations.items()
        }

    def __len__(self) -> int:
        return len(self.rel_spans) + len(self.rel_instants)
