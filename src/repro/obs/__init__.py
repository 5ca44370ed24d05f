"""Observability: simulated-time tracing, metrics, and the adaptive
audit log.

The subsystem is strictly *passive*: it reads simulated times and
statistics that the runtime computes anyway and never calls
``ctx.charge``, so attaching it cannot change a job's simulated
behavior (tests pin this down). With no :class:`Observability` attached
the runtime takes the exact pre-observability code paths.

Layout:

* :mod:`repro.obs.trace`   -- :class:`Tracer` (nested spans + point
  events stamped in simulated cluster time) and the per-task buffer.
* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` (counters,
  gauges, fixed-bucket histograms) that snapshots from the Hadoop-style
  ``Counters``.
* :mod:`repro.obs.audit`   -- :class:`AdaptiveAuditLog`: one record per
  Algorithm-1 evaluation (cost estimates, samples, gate verdict, plan
  change).
* :mod:`repro.obs.export`  -- Chrome ``trace_event`` JSON + JSONL
  exporters and the trace validator.
* :mod:`repro.obs.analysis` -- offline analytics over the exported
  artifacts; ``python -m repro.obs.analysis report`` is the one command
  that reads a trace (critical path, stragglers, drift, slowest
  lookups, re-plan timeline), all over one span tree
  (:func:`repro.obs.analysis.loader.build_forest`).
* :mod:`repro.obs.live`    -- the SLO alerts of a ``--live`` run: one
  fold over the recorded spans when the run finishes, judged by the
  rule engine.
"""

from __future__ import annotations

import os

from repro.obs.audit import AdaptiveAuditLog, AuditRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TaskTraceBuffer, Tracer

__all__ = [
    "AdaptiveAuditLog",
    "AuditRecord",
    "MetricsRegistry",
    "Observability",
    "TaskTraceBuffer",
    "Tracer",
]


class Observability:
    """One trace session: a tracer, a metrics registry, and an audit
    log wired together. Pass an instance to :class:`EFindRunner` (or
    :class:`JobRunner`) to record; pass None (the default everywhere)
    for the zero-cost path."""

    def __init__(self, max_task_detail: int = 256, bus=None):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(metrics=self.metrics, max_task_detail=max_task_detail)
        self.audit = AdaptiveAuditLog()
        # Optional repro.obs.live.LiveSession.bus: the session folds this
        # tracer's spans when it finishes. Task spans then also carry
        # their counter deltas (args.counters), which that fold reads.
        self.bus = bus
        if bus is not None:
            bus.append(self.tracer)

    # ------------------------------------------------------------------
    def export(self, directory: str, base: str, alerts=None) -> dict:
        """Write ``<base>.trace.json`` (Chrome ``trace_event``),
        ``<base>.audit.jsonl``, and ``<base>.metrics.json`` under
        ``directory``; returns the paths keyed by kind.

        ``alerts`` (live-run SLO alert rows, as produced by
        :meth:`repro.obs.live.LiveSession.alert_rows`) additionally
        writes ``<base>.alerts.jsonl`` and embeds the firing windows in
        the Chrome trace as async ``b``/``e`` bands."""
        from repro.obs.export import write_chrome_trace, write_json, write_jsonl

        os.makedirs(directory, exist_ok=True)
        paths = {
            "trace": os.path.join(directory, f"{base}.trace.json"),
            "audit": os.path.join(directory, f"{base}.audit.jsonl"),
            "metrics": os.path.join(directory, f"{base}.metrics.json"),
        }
        write_chrome_trace(self.tracer, paths["trace"], alerts=alerts)
        write_jsonl(self.audit.to_dicts(), paths["audit"])
        write_json(self.metrics.to_dict(), paths["metrics"])
        if alerts is not None:
            paths["alerts"] = os.path.join(directory, f"{base}.alerts.jsonl")
            write_jsonl(alerts, paths["alerts"])
        return paths
