"""Live telemetry: the event bus, rolling aggregators, and SLO engine.

Post-hoc artifacts (PRs 3-4) answer "what happened?"; this package
answers "what is happening?" while a simulated run executes -- without
perturbing it. The pieces:

* :mod:`repro.obs.live.bus`      -- :class:`TelemetryBus`: streams
  tracer spans, counter deltas, and audit verdicts to in-process
  subscribers, in deterministic publish order, charging zero simulated
  time.
* :mod:`repro.obs.live.windows`  -- :class:`LiveAggregators`: rolling
  windows over the event stream (per-phase throughput, cache/reuse hit
  ratios, fault-retry rate, build coverage, wave-tail straggler ratio).
* :mod:`repro.obs.live.rules`    -- the declarative SLO rule grammar
  (threshold / rate-of-change / sustained-for) and
  ``benchmarks/slo_rules.json`` loading.
* :mod:`repro.obs.live.engine`   -- :class:`SLOEngine`: evaluates
  rules over the sample stream and emits a deterministic alert
  timeline (exported as ``<base>.alerts.jsonl``).
* :mod:`repro.obs.live.snapshot` -- the live progress snapshot API.
* :mod:`repro.obs.live.replay` / :mod:`repro.obs.live.render` -- the
  ``python -m repro.obs live`` tick-by-tick artifact replay.

:class:`LiveSession` wires them together; the bench harness attaches
one to the traced re-run when ``python -m repro.bench --trace DIR
--live`` is given.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.live.bus import TelemetryBus, TelemetryEvent
from repro.obs.live.engine import Alert, SLOEngine, overlapping_alerts
from repro.obs.live.rules import RuleError, SloRule, coerce_rules, load_rules
from repro.obs.live.snapshot import LiveSnapshot
from repro.obs.live.windows import DEFAULT_WINDOW_S, LiveAggregators, RollingWindow

__all__ = [
    "Alert",
    "DEFAULT_WINDOW_S",
    "LiveAggregators",
    "LiveSession",
    "LiveSnapshot",
    "RollingWindow",
    "RuleError",
    "SLOEngine",
    "SloRule",
    "TelemetryBus",
    "TelemetryEvent",
    "coerce_rules",
    "load_rules",
    "overlapping_alerts",
]


class LiveSession:
    """One live-telemetry session: bus -> aggregators -> SLO engine ->
    snapshot, ready to hand to :class:`repro.obs.Observability` via its
    ``bus`` parameter.

    ``rules`` accepts a rule-file path, a list of rules (objects or
    dicts), or None/"" for the built-in defaults.
    """

    def __init__(self, rules=None):
        self.rules: List[SloRule] = coerce_rules(rules)
        self.bus = TelemetryBus()
        self.aggregators = LiveAggregators(self.bus)
        self.engine = SLOEngine(self.rules, self.aggregators)
        self.progress = LiveSnapshot(self.bus, self.aggregators, self.engine)

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Seal the session at the aggregators' watermark (alerts still
        firing stay open)."""
        self.engine.finish(self.aggregators.watermark)

    @property
    def alerts(self) -> List[Alert]:
        return self.engine.alerts

    def alert_rows(self) -> List[dict]:
        return self.engine.alert_rows()

    def snapshot(self) -> dict:
        return self.progress.snapshot()

    def export_alerts(self, path: str) -> None:
        from repro.obs.live.engine import write_alerts

        write_alerts(self.alert_rows(), path)
