"""SLO alerts of a traced run, folded from its recorded spans.

The exported artifacts answer "what happened?"; this package folds a
traced run into SLO verdicts without perturbing it. Nothing runs while
the simulation executes: :meth:`LiveSession.finish` folds what the
attached :class:`~repro.obs.Observability` recorded, and verdicts
exist from then on. The pieces:

* :mod:`repro.obs.live.fold`   -- :func:`samples`: one fold over the
  span rows (per-phase throughput, cache/reuse hit ratios, fault-retry
  rate, build coverage, wave-tail straggler ratio), fed from a
  recording or from an export.
* :mod:`repro.obs.live.rules`  -- the declarative SLO rule grammar
  (threshold / rate-of-change / sustained-for) and
  ``benchmarks/slo_rules.json`` loading.
* :mod:`repro.obs.live.engine` -- :class:`SLOEngine`: evaluates rules
  over the sample stream and emits a deterministic alert timeline
  (exported as ``<base>.alerts.jsonl``).

The bench harness attaches a :class:`LiveSession` to the traced re-run
when ``python -m repro.bench --trace DIR --live`` is given; ``python -m
repro.obs live DIR`` recomputes an export's alerts and checks them
against the recorded ones.
"""

from __future__ import annotations

from typing import List

from repro.obs.live.engine import Alert, SLOEngine, overlapping_alerts
from repro.obs.live.fold import (
    DEFAULT_WINDOW_S,
    RollingWindow,
    artifact_rows,
    recording_rows,
    samples,
)
from repro.obs.live.rules import RuleError, SloRule, coerce_rules, load_rules

__all__ = [
    "Alert",
    "DEFAULT_WINDOW_S",
    "LiveSession",
    "RollingWindow",
    "RuleError",
    "SLOEngine",
    "SloRule",
    "artifact_rows",
    "coerce_rules",
    "load_rules",
    "overlapping_alerts",
    "recording_rows",
    "samples",
]


class LiveSession:
    """One SLO session, ready to hand to
    :class:`repro.obs.Observability` via its ``bus`` parameter. The
    session stays empty until :meth:`finish`.

    ``rules`` accepts a rule-file path, a list of rules (objects or
    dicts), or None/"" for the built-in defaults.
    """

    def __init__(self, rules=None):
        self.rules: List[SloRule] = coerce_rules(rules)
        #: The tracer of every Observability built with ``bus=`` this
        #: list, in construction order: what :meth:`finish` folds.
        self.bus: list = []
        self.engine = SLOEngine(self.rules)

    def finish(self) -> None:
        """Fold what every attached Observability recorded, as one
        stream, into the alert timeline (alerts still firing stay
        open). A recording is folded once."""
        tracers = list(self.bus)
        self.bus.clear()
        self.engine.feed(
            samples(row for tracer in tracers for row in recording_rows(tracer))
        )

    @property
    def alerts(self) -> List[Alert]:
        return self.engine.alerts

    def alert_rows(self) -> List[dict]:
        return self.engine.alert_rows()

    def export_alerts(self, path: str) -> None:
        from repro.obs.live.engine import write_alerts

        write_alerts(self.alert_rows(), path)
