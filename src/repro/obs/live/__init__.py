"""Live telemetry: the event bus, rolling aggregators, and SLO engine.

The exported artifacts answer "what happened?"; this package folds a
traced run into SLO verdicts without perturbing it. Nothing runs while
the simulation executes: :meth:`LiveSession.finish` replays what the
attached :class:`~repro.obs.Observability` recorded, and verdicts
exist from then on. The pieces:

* :mod:`repro.obs.live.bus`      -- :class:`TelemetryBus`: hands
  spans, counter deltas, and audit verdicts to in-process subscribers,
  in deterministic publish order.
* :mod:`repro.obs.live.replay`   -- rebuilds the event stream of a run,
  from its in-memory recording or from its exported artifacts.
* :mod:`repro.obs.live.windows`  -- :class:`LiveAggregators`: rolling
  windows over the event stream (per-phase throughput, cache/reuse hit
  ratios, fault-retry rate, build coverage, wave-tail straggler ratio).
* :mod:`repro.obs.live.rules`    -- the declarative SLO rule grammar
  (threshold / rate-of-change / sustained-for) and
  ``benchmarks/slo_rules.json`` loading.
* :mod:`repro.obs.live.engine`   -- :class:`SLOEngine`: evaluates
  rules over the sample stream and emits a deterministic alert
  timeline (exported as ``<base>.alerts.jsonl``).
* :mod:`repro.obs.live.snapshot` -- the progress snapshot API.
* :mod:`repro.obs.live.render`   -- the ``python -m repro.obs live``
  tick-by-tick artifact replay.

:class:`LiveSession` wires them together; the bench harness attaches
one to the traced re-run when ``python -m repro.bench --trace DIR
--live`` is given.
"""

from __future__ import annotations

from typing import List

from repro.obs.live.bus import TelemetryBus, TelemetryEvent
from repro.obs.live.engine import Alert, SLOEngine, overlapping_alerts
from repro.obs.live.replay import events_from_recording, publish
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
    ``bus`` parameter. The session stays empty until :meth:`finish`.

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
        """Publish what every attached Observability recorded, then seal
        the session at the aggregators' watermark (alerts still firing
        stay open). A recording is replayed once."""
        recordings, self.bus.recordings = self.bus.recordings, []
        for tracer, audit in recordings:
            publish(self.bus, events_from_recording(tracer, audit))
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
