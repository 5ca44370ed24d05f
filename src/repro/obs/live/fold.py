"""The SLO metric samples of a traced run: one fold over its spans.

:func:`samples` reads span rows ``(name, cat, start, end, args)`` in
the tracer's append order -- the order the export keeps -- and answers
the samples the SLO rules judge, ``(metric, ts, value, detail)``:

====================== ================================================
metric                  meaning (one sample per triggering span)
====================== ================================================
``throughput.map``      completed map tasks per simulated second over
                        the trailing window (``throughput.reduce``
                        likewise)
``cache_hit_ratio``     lookup-cache hits / probes over the window
                        (from ``cache.probe`` detail spans; subject to
                        the per-task detail cap, so it is a *sampled*
                        ratio)
``reuse_hit_ratio``     cross-job reuse hits / probes over the window
                        (from per-task ``reuse.*`` counter deltas)
``fault_retry_rate``    fault retries (task + lookup) per simulated
                        second over the window
``build_progress``      cumulative ``build.records_indexed`` (a level,
                        not a rate: coverage only grows)
``straggler_ratio``     slowest / median completed-task duration of a
                        just-sealed wave (waves of one task answer 1.0)
====================== ================================================

A task's counter deltas ride on its span (``args["counters"]``, which
the runtime records when the run has a live session) and are folded
just before the span itself. A trace recorded without them still
yields the span-derived metrics; the counter-derived ones stay silent.

Rows come in *commit* order, so their end times are not monotone. The
fold keeps a watermark (the latest end seen) and stamps every windowed
sample with it; window membership still uses each row's own end. The
sample stream is therefore monotone -- which the sustained and
rate-of-change predicates need -- and deterministic, because commit
order is. ``straggler_ratio`` is stamped at the sealing wave's own end
instead: wave spans commit at job end, long after they sealed, and the
watermark would push every straggler alert past the tasks that caused
it. Wave ends are monotone in commit order (waves in order, map before
reduce, jobs sequential), so the stream the engine sees stays monotone.

Two adapters feed the fold the same rows: :func:`recording_rows` from a
:class:`~repro.obs.trace.Tracer` in memory, snapped onto the export
grid, and :func:`artifact_rows` from a loaded export. The alerts of a
finished session and of its replayed export are therefore equal.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from heapq import heappop, heappush
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.obs.analysis.loader import task_stage
from repro.obs.metrics import median

#: Default trailing window width (simulated seconds). The simulated
#: benches run for single-digit seconds, so one second spans a few task
#: waves -- wide enough to smooth per-task noise, narrow enough that a
#: retry storm or hit-ratio collapse moves the windowed value fast.
DEFAULT_WINDOW_S = 1.0

#: Every metric :func:`samples` emits: the names a rule may judge.
METRICS = (
    "throughput.map",
    "throughput.reduce",
    "cache_hit_ratio",
    "reuse_hit_ratio",
    "fault_retry_rate",
    "build_progress",
    "straggler_ratio",
)

#: One span: (name, cat, start, end, args), times on the export grid.
Row = Tuple[str, str, float, float, Dict[str, Any]]
#: One metric sample: (metric, ts, value, detail).
Sample = Tuple[str, float, float, Dict[str, Any]]

_US = 1_000_000.0


class RollingWindow:
    """(ts, value) samples inside the trailing ``width`` seconds.

    ``add`` pushes (event time); ``prune`` drops everything at or
    before ``watermark - width``. Entries live in a min-heap keyed by
    event time -- arrival order is not time order, but the heap root is
    always the oldest entry, so pruning pops exactly the stale ones in
    O(log n) each instead of scanning the whole window per row. A
    running sum keeps :meth:`sum` O(1); every value fed in is an
    integer-valued float (task/probe counts), so the incremental
    add/subtract is exact.
    """

    def __init__(self, width: float):
        if width <= 0:
            raise ValueError("window width must be positive")
        self.width = width
        self._heap: List[Tuple[float, float]] = []
        self._sum = 0.0

    def add(self, ts: float, value: float) -> None:
        heappush(self._heap, (ts, value))
        self._sum += value

    def prune(self, watermark: float) -> None:
        horizon = watermark - self.width
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            self._sum -= heappop(heap)[1]

    def sum(self) -> float:
        return self._sum

    def rate(self) -> float:
        """Window sum per second of window width."""
        return self._sum / self.width


def _quantize_range(start: float, end: float) -> Tuple[float, float]:
    """Snap a span's endpoints onto the Chrome-trace export grid.

    The export stores ``ts = round(start*1e6, 3)`` and ``dur =
    round(duration*1e6, 3)``; the loader reconstructs ``start = ts/1e6``
    and ``end = start + dur/1e6``. This mirrors those expressions term
    by term, because float arithmetic does not distribute.
    """
    start_q = round(start * _US, 3) / _US
    end_q = start_q + round(max(0.0, end - start) * _US, 3) / _US
    return start_q, end_q


def recording_rows(tracer) -> Iterator[Row]:
    """The rows of an in-memory :class:`~repro.obs.trace.Tracer`."""
    for s in tracer.spans:
        yield (s.name, s.cat, *_quantize_range(s.start, s.end), s.args)


def artifact_rows(artifact) -> Iterator[Row]:
    """The rows of a loaded
    :class:`~repro.obs.analysis.loader.TraceArtifacts`."""
    for s in artifact.spans:
        yield (s["name"], s["cat"], s["start"], s["start"] + s["dur"], s["args"])


def samples(rows: Iterable[Row]) -> List[Sample]:
    """The metric samples of ``rows``, in emission order."""
    out: List[Sample] = []
    window: Dict[str, RollingWindow] = defaultdict(
        partial(RollingWindow, DEFAULT_WINDOW_S)
    )
    # Completed-task durations per (stage, kind, wave), consumed when
    # the wave span seals.
    wave_tasks: Dict[Tuple[str, str, int], List[float]] = {}
    built = 0.0
    now = 0.0  # the watermark
    for name, cat, start, end, args in rows:
        if end > now:
            now = end
        if name == "cache.probe":
            probes, hits = window["cache.probes"], window["cache.hits"]
            probes.add(end, 1.0)
            if args.get("hit", False):
                hits.add(end, 1.0)
            probes.prune(now)
            hits.prune(now)
            total = probes.sum()
            if total > 0:
                out.append(
                    ("cache_hit_ratio", now, hits.sum() / total, {"probes": total})
                )
        elif name == "task":
            deltas = args.get("counters")
            if isinstance(deltas, dict):
                reuse = deltas.get("reuse.probes", 0.0)
                if reuse > 0:
                    probes, hits = window["reuse.probes"], window["reuse.hits"]
                    probes.add(end, reuse)
                    hits.add(end, deltas.get("reuse.hits", 0.0))
                    probes.prune(now)
                    hits.prune(now)
                    total = probes.sum()
                    if total > 0:
                        out.append((
                            "reuse_hit_ratio", now, hits.sum() / total,
                            {"probes": total},
                        ))
                retries = deltas.get("fault.tasks_retried", 0.0) + deltas.get(
                    "fault.lookups_retried", 0.0
                )
                if retries > 0:
                    win = window["fault.retries"]
                    win.add(end, retries)
                    win.prune(now)
                    out.append((
                        "fault_retry_rate", now, win.rate(),
                        {"window_retries": win.sum()},
                    ))
                indexed = deltas.get("build.records_indexed", 0.0)
                if indexed > 0:
                    built += indexed
                    out.append(("build_progress", now, built, {"delta": indexed}))
            kind = str(args.get("kind", "?"))
            stage = task_stage(str(args.get("task", "")))
            wave = int(args.get("wave", 0))
            wave_tasks.setdefault((stage, kind, wave), []).append(end - start)
            win = window["tasks." + kind]
            win.add(end, 1.0)
            win.prune(now)
            out.append(
                (f"throughput.{kind}", now, win.rate(), {"stage": stage, "wave": wave})
            )
        elif cat == "wave":
            # "<kind>.wave<N>" sealing: the wave-tail straggler ratio.
            kind = str(args.get("kind", "?"))
            stage = str(args.get("job", "?"))
            wave = int(args.get("wave", 0))
            durs = wave_tasks.pop((stage, kind, wave), [])
            ratio = max(durs) / median(durs) if len(durs) >= 2 else 1.0
            out.append((
                "straggler_ratio", end, ratio,
                {"stage": stage, "kind": kind, "wave": wave, "tasks": len(durs)},
            ))
    return out
