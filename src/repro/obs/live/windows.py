"""Rolling-window aggregation of bus events into metric samples.

:class:`LiveAggregators` subscribes to a :class:`TelemetryBus` and
folds the raw event stream into a small set of *metric samples* -- the
vocabulary the SLO rule engine evaluates:

====================== ================================================
metric                  meaning (one sample per triggering event)
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

Event time vs processing time: bus events arrive in *commit* order, so
their timestamps are not monotone. The aggregators keep a watermark
(the max event ``ts`` seen) and emit every windowed sample at the
watermark; window membership still uses each event's own timestamp.
That keeps the sample stream monotone -- which the sustained/
rate-of-change predicates need -- while staying fully deterministic,
because commit order itself is deterministic. The one exception is
``straggler_ratio``, stamped at the sealing wave's own end time (see
:meth:`LiveAggregators._on_span`); wave ends are themselves monotone in
commit order, so the exception preserves the monotonicity the engine
relies on.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.live import bus as busmod
from repro.obs.analysis.loader import task_stage
from repro.obs.metrics import Histogram, median

#: Default trailing window width (simulated seconds). The simulated
#: benches run for single-digit seconds, so one second spans a few task
#: waves -- wide enough to smooth per-task noise, narrow enough that a
#: retry storm or hit-ratio collapse moves the windowed value fast.
DEFAULT_WINDOW_S = 1.0

#: A metric sample delivered to listeners (and logged in order).
Sample = Tuple[str, float, float, Dict[str, Any]]  # (metric, ts, value, detail)


class RollingWindow:
    """(ts, value) samples inside the trailing ``width`` seconds.

    ``add`` pushes (event time); ``prune`` drops everything at or
    before ``watermark - width``. Entries live in a min-heap keyed by
    event time -- arrival order is not time order, but the heap root is
    always the oldest entry, so pruning pops exactly the stale ones in
    O(log n) each instead of scanning the whole window per event. A
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

    def count(self) -> int:
        return len(self._heap)

    def mean(self) -> float:
        return self._sum / len(self._heap) if self._heap else 0.0

    def rate(self) -> float:
        """Window sum per second of window width."""
        return self._sum / self.width

    def __len__(self) -> int:
        return len(self._heap)


class LiveAggregators:
    """Folds a telemetry event stream into rolling metric samples.

    Listeners registered with :meth:`on_sample` receive every sample in
    emission order; the full log also accumulates in :attr:`samples`
    for offline inspection. All state is plain Python updated in event
    order, so the sample stream is deterministic.
    """

    def __init__(self, bus: Optional[busmod.TelemetryBus] = None):
        self.watermark = 0.0
        self.samples: List[Sample] = []
        self._listeners: List[Callable[[str, float, float, Dict[str, Any]], None]] = []
        # Completed-task durations per (stage, kind, wave), consumed
        # when the wave span seals.
        self._wave_tasks: Dict[Tuple[str, str, int], List[float]] = {}
        # Rolling windows keyed by input-series name.
        self._win: Dict[str, RollingWindow] = {}
        #: Live latency histogram over absorbed lookup spans. Uses the
        #: same :class:`~repro.obs.metrics.Histogram` (and therefore the
        #: same bucket edges) as the offline metrics export, so the
        #: quantiles shown live reprice exactly like the exported ones.
        self.lookup_latency = Histogram("live.lookup.latency_s")
        self._last: Dict[str, float] = {}  # metric -> its latest sample value
        if bus is not None:
            bus.subscribe(self.on_event)

    # ------------------------------------------------------------------
    def on_sample(
        self, fn: Callable[[str, float, float, Dict[str, Any]], None]
    ) -> None:
        self._listeners.append(fn)

    def _emit(
        self, metric: str, ts: float, value: float, detail: Dict[str, Any]
    ) -> None:
        self.samples.append((metric, ts, value, detail))
        self._last[metric] = value
        for fn in self._listeners:
            fn(metric, ts, value, detail)

    def _window(self, name: str) -> RollingWindow:
        win = self._win.get(name)
        if win is None:
            win = self._win[name] = RollingWindow(DEFAULT_WINDOW_S)
        return win

    # ------------------------------------------------------------------
    def on_event(self, event: busmod.TelemetryEvent) -> None:
        # Only span and counters events drive the watermark and the
        # sample stream; instants and audit verdicts are display-only
        # (the snapshot layer consumes them directly off the bus).
        # Keeping them out of the aggregators means the sample stream,
        # and hence the alert timeline, depends only on the span order,
        # not on where the replay merges display events in.
        kind = event.kind
        if kind == busmod.KIND_SPAN:
            ts = event.ts
            if ts > self.watermark:
                self.watermark = ts
            # By name first: the per-lookup detail spans, nearly every
            # span of a run, are settled before the payload is read.
            name = event.name
            if name == "cache.probe":
                self._on_probe(event, self.watermark)
            elif name == "lookup" or name == "lookup.batch":
                self.lookup_latency.observe(max(0.0, ts - event.start))
            elif name != "index.fetch":
                self._on_span(event, self.watermark)
        elif kind == busmod.KIND_COUNTERS:
            if event.ts > self.watermark:
                self.watermark = event.ts
            self._on_counters(event, self.watermark)

    # ------------------------------------------------------------------
    def _on_probe(self, event: busmod.TelemetryEvent, now: float) -> None:
        probes = self._window("cache.probes")
        hits = self._window("cache.hits")
        probes.add(event.ts, 1.0)
        if event.payload.get("args", {}).get("hit", False):
            hits.add(event.ts, 1.0)
        probes.prune(now)
        hits.prune(now)
        total = probes.sum()
        if total > 0:
            self._emit(
                "cache_hit_ratio", now, hits.sum() / total, {"probes": total}
            )

    def _on_span(self, event: busmod.TelemetryEvent, now: float) -> None:
        name = event.name
        if name == "task":
            args = event.payload.get("args", {})
            kind = str(args.get("kind", "?"))
            stage = task_stage(str(args.get("task", "")))
            wave = int(args.get("wave", 0))
            self._wave_tasks.setdefault((stage, kind, wave), []).append(
                event.ts - event.start
            )
            win = self._window(f"tasks.{kind}")
            win.add(event.ts, 1.0)
            win.prune(now)
            self._emit(
                f"throughput.{kind}", now, win.rate(),
                {"stage": stage, "wave": wave},
            )
        elif event.payload.get("cat") == "wave":
            # "<kind>.wave<N>" sealing: the wave-tail straggler ratio.
            # Emitted at the wave's own end time, not the watermark:
            # wave spans commit at job end, long after they sealed, and
            # stamping the sample there would push every straggler
            # alert's firing window past the tasks that caused it. Wave
            # ends are monotone in commit order (waves in order, map
            # before reduce, jobs sequential), so the per-metric sample
            # stream the rule engine sees stays monotone.
            args = event.payload.get("args", {})
            kind = str(args.get("kind", "?"))
            stage = str(args.get("job", "?"))
            wave = int(args.get("wave", 0))
            durs = self._wave_tasks.pop((stage, kind, wave), [])
            ratio = max(durs) / median(durs) if len(durs) >= 2 else 1.0
            self._emit(
                "straggler_ratio", event.ts, ratio,
                {"stage": stage, "kind": kind, "wave": wave, "tasks": len(durs)},
            )

    # ------------------------------------------------------------------
    def _on_counters(self, event: busmod.TelemetryEvent, now: float) -> None:
        deltas = event.payload.get("deltas", {})
        # Reuse hit ratio over the window.
        probes = deltas.get("reuse.probes", 0.0)
        if probes > 0:
            pw = self._window("reuse.probes")
            hw = self._window("reuse.hits")
            pw.add(event.ts, probes)
            hw.add(event.ts, deltas.get("reuse.hits", 0.0))
            pw.prune(now)
            hw.prune(now)
            total = pw.sum()
            if total > 0:
                self._emit(
                    "reuse_hit_ratio", now, hw.sum() / total,
                    {"probes": total},
                )
        # Fault-retry rate (task re-executions + per-lookup retries).
        retries = deltas.get("fault.tasks_retried", 0.0) + deltas.get(
            "fault.lookups_retried", 0.0
        )
        if retries > 0:
            rw = self._window("fault.retries")
            rw.add(event.ts, retries)
            rw.prune(now)
            self._emit(
                "fault_retry_rate", now, rw.rate(),
                {"window_retries": rw.sum()},
            )
        # Build coverage progress: a cumulative level, so the last sample
        # is the running total.
        indexed = deltas.get("build.records_indexed", 0.0)
        if indexed > 0:
            level = self._last.get("build_progress", 0.0) + indexed
            self._emit("build_progress", now, level, {"delta": indexed})

    # ------------------------------------------------------------------
    def current(self, metric: str) -> Optional[float]:
        """The most recent value of one metric (None before the first
        sample)."""
        return self._last.get(metric)
