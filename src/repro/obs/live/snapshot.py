"""The live progress snapshot API.

:class:`LiveSnapshot` subscribes to the telemetry bus and keeps just
enough state to answer "how far has the stream got?" after any event:
the simulated watermark, completed tasks per (stage, phase), sealed
waves, audit verdict counts, the aggregators' latest metric values,
and the rule engine's active alerts. :meth:`snapshot` returns a
deterministic plain dict (everything sorted) and :meth:`render_line`
formats the one-line frame the terminal renderer prints per tick.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs.analysis.loader import task_stage
from repro.obs.live import bus as busmod

#: Metrics shown in the one-line frame, in display order.
_FRAME_METRICS = (
    "throughput.map",
    "throughput.reduce",
    "cache_hit_ratio",
    "reuse_hit_ratio",
    "fault_retry_rate",
    "straggler_ratio",
)


class LiveSnapshot:
    """Progress bookkeeping over the raw event stream."""

    def __init__(self, bus, aggregators, engine):
        self.aggregators = aggregators
        self.engine = engine
        self.watermark = 0.0
        self.events = 0
        self.tasks_done: Dict[tuple, int] = {}
        self.waves_done = 0
        self.crashes = 0
        self.audit_verdicts: Dict[str, int] = {}
        #: Jobs in first-seen order (a dict for its O(1) membership).
        self.jobs_seen: Dict[str, None] = {}
        bus.subscribe(self.on_event)

    # ------------------------------------------------------------------
    def on_event(self, event: busmod.TelemetryEvent) -> None:
        self.events += 1
        if event.ts > self.watermark:
            self.watermark = event.ts
        kind = event.kind
        if kind == busmod.KIND_SPAN:
            name = event.name
            if name in busmod.DETAIL_SPANS:
                return
            if name == "task":
                args = event.payload.get("args", {})
                stage = task_stage(str(args.get("task", "")))
                key = (stage, str(args.get("kind", "?")))
                self.tasks_done[key] = self.tasks_done.get(key, 0) + 1
            elif name == "task.crash":
                self.crashes += 1
            else:
                cat = event.payload.get("cat")
                if cat == "wave":
                    self.waves_done += 1
                elif cat == "job":
                    args = event.payload.get("args", {})
                    self.jobs_seen.setdefault(str(args.get("job", name)))
        elif kind == busmod.KIND_AUDIT:
            self.audit_verdicts[event.name] = (
                self.audit_verdicts.get(event.name, 0) + 1
            )

    # ------------------------------------------------------------------
    def _metric_values(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for metric in _FRAME_METRICS + ("build_progress",):
            value = self.aggregators.current(metric)
            if value is not None:
                out[metric] = value
        return out

    def snapshot(self) -> Dict[str, Any]:
        """A deterministic point-in-time progress dict."""
        hist = self.aggregators.lookup_latency
        return {
            "watermark": self.watermark,
            "events": self.events,
            "tasks_done": {
                f"{stage}/{kind}": n
                for (stage, kind), n in sorted(self.tasks_done.items())
            },
            "waves_done": self.waves_done,
            "crashes": self.crashes,
            "jobs_seen": list(self.jobs_seen),
            "audit_verdicts": dict(sorted(self.audit_verdicts.items())),
            "metrics": self._metric_values(),
            "lookup_latency": (
                {
                    "count": hist.count,
                    "p50": hist.quantile(0.5),
                    "p99": hist.quantile(0.99),
                }
                if hist.count
                else {}
            ),
            "alerts_fired": len(self.engine.alerts),
            "alerts_active": [a.rule for a in self.engine.active],
        }

    def render_line(self) -> str:
        """One terminal frame: ``t=.. | tasks .. | metrics .. | alerts``."""
        snap = self.snapshot()
        tasks = sum(self.tasks_done.values())
        parts = [f"t={snap['watermark']:8.3f}s", f"tasks={tasks:4d}"]
        parts.append(f"waves={snap['waves_done']:3d}")
        metrics = snap["metrics"]
        for metric in _FRAME_METRICS:
            if metric in metrics:
                short = metric.replace("throughput.", "thr.")
                parts.append(f"{short}={metrics[metric]:.2f}")
        if snap["alerts_active"]:
            parts.append("ALERT " + ",".join(snap["alerts_active"]))
        elif snap["alerts_fired"]:
            parts.append(f"alerts={snap['alerts_fired']}")
        return " | ".join(parts)
