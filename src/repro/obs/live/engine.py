"""The SLO rule engine: metric samples in, a deterministic alert
timeline out.

:class:`SLOEngine` consumes the sample stream of
:func:`repro.obs.live.fold.samples` and drives one small state machine
per rule:

* **idle** -- the predicate is false. A tripping sample moves to
  *pending* (or straight to *firing* when ``min_count`` is 1 and, for
  ``sustained``, the hold time is zero... it never is, so sustained
  always passes through pending).
* **pending** -- tripping samples are accumulating toward
  ``min_count`` (and, for ``sustained`` predicates, toward the
  required hold time). Any non-tripping sample resets to idle.
* **firing** -- an :class:`Alert` is open; tripping samples append
  evidence (capped; the peak always tracked). The first non-tripping
  sample clears the alert at its timestamp.

Alerts that are still firing when the stream ends stay *open*
(``cleared_at`` is ``null`` in the export). The whole pipeline is plain
deterministic Python over a deterministic sample stream, so the
exported ``alerts.jsonl`` is byte-identical across runs and processes
(a test pins this under different ``PYTHONHASHSEED``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.live.rules import SloRule

#: Evidence samples kept per alert (first trippers; the peak and the
#: total sample count are always exact).
MAX_EVIDENCE = 8


@dataclass
class Alert:
    """One firing (or fired) SLO rule instance."""

    rule: str
    severity: str
    metric: str
    fired_at: float
    cleared_at: Optional[float] = None
    #: The first tripping samples, ``{"ts": ..., "value": ...}`` each.
    evidence: List[Dict[str, float]] = field(default_factory=list)
    #: Most extreme tripping value (max for > / >= rules, min for < / <=).
    peak: float = 0.0
    #: Total tripping samples while firing (never capped).
    samples: int = 0
    #: Detail dict of the sample that fired the alert.
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.cleared_at is None

    def to_row(self, seq: int) -> dict:
        return {
            "seq": seq,
            "rule": self.rule,
            "severity": self.severity,
            "metric": self.metric,
            "fired_at": self.fired_at,
            "cleared_at": self.cleared_at,
            "state": "open" if self.open else "cleared",
            "evidence": list(self.evidence),
            "peak": self.peak,
            "samples": self.samples,
            "detail": {k: self.detail[k] for k in sorted(self.detail)},
        }


class _RuleState:
    """Per-rule evaluation state."""

    __slots__ = ("rule", "alert", "pending_since", "pending_count", "history")

    def __init__(self, rule: SloRule):
        self.rule = rule
        self.alert: Optional[Alert] = None
        self.pending_since: Optional[float] = None
        self.pending_count = 0
        # rate_of_change: trailing (ts, value) samples inside `per`.
        # Sample ts are watermarks (monotone), so the deque stays
        # time-ordered and pruning pops from the front.
        self.history: Deque[Tuple[float, float]] = deque()


class SLOEngine:
    """Evaluates SLO rules over a metric sample stream."""

    def __init__(self, rules: Sequence[SloRule]):
        self.rules = list(rules)
        self.alerts: List[Alert] = []  # firing order, fired and open
        self._states = [_RuleState(rule) for rule in self.rules]
        self._by_metric: Dict[str, List[_RuleState]] = {}
        for state in self._states:
            self._by_metric.setdefault(state.rule.metric, []).append(state)

    # ------------------------------------------------------------------
    def feed(self, samples: Iterable[tuple]) -> None:
        """Judge ``(metric, ts, value, detail)`` samples in order."""
        for sample in samples:
            self.on_sample(*sample)

    def on_sample(
        self, metric: str, ts: float, value: float, detail: Dict[str, Any]
    ) -> None:
        for state in self._by_metric.get(metric, ()):
            self._evaluate(state, ts, value, detail)

    def _evaluate(
        self, state: _RuleState, ts: float, value: float, detail: Dict[str, Any]
    ) -> None:
        rule = state.rule
        judged = value
        if rule.kind == "rate_of_change":
            history = state.history
            history.append((ts, value))
            horizon = ts - rule.per_seconds
            while history[0][0] < horizon:
                history.popleft()
            (t0, v0), (t1, v1) = history[0], history[-1]
            if t1 <= t0:
                return  # need two samples spanning time before judging
            judged = (v1 - v0) / (t1 - t0)
        tripping = rule.compare(judged)

        if state.alert is not None:
            alert = state.alert
            if tripping:
                alert.samples += 1
                if len(alert.evidence) < MAX_EVIDENCE:
                    alert.evidence.append({"ts": ts, "value": judged})
                better = (
                    judged > alert.peak
                    if rule.op in (">", ">=")
                    else judged < alert.peak
                )
                if better:
                    alert.peak = judged
            else:
                alert.cleared_at = ts
                state.alert = None
            return

        if not tripping:
            state.pending_since = None
            state.pending_count = 0
            return
        if state.pending_since is None:
            state.pending_since = ts
        state.pending_count += 1
        if state.pending_count < rule.min_count:
            return
        if rule.kind == "sustained" and ts - state.pending_since < rule.for_seconds:
            return
        alert = Alert(
            rule=rule.name,
            severity=rule.severity,
            metric=rule.metric,
            fired_at=ts,
            evidence=[{"ts": ts, "value": judged}],
            peak=judged,
            samples=1,
            detail=dict(detail),
        )
        state.alert = alert
        state.pending_since = None
        state.pending_count = 0
        self.alerts.append(alert)

    # ------------------------------------------------------------------
    def alert_rows(self) -> List[dict]:
        """JSON-ready rows in firing order (the ``alerts.jsonl``
        content)."""
        return [alert.to_row(i) for i, alert in enumerate(self.alerts)]


# ----------------------------------------------------------------------
# alerts.jsonl I/O and the analysis join
# ----------------------------------------------------------------------
def write_alerts(rows: List[dict], path: str) -> None:
    from repro.obs.export import write_jsonl

    write_jsonl(rows, path)


def overlapping_alerts(
    rows: Sequence[dict], start: float, end: float
) -> List[dict]:
    """Alert rows whose firing window intersects ``[start, end]``.

    An open alert (``cleared_at`` null) extends to +inf -- the
    condition never observably recovered, so it overlaps everything
    after it fired. Rows come back in their original (firing) order.
    """
    out = []
    for row in rows:
        fired = row.get("fired_at")
        if not isinstance(fired, (int, float)):
            continue
        cleared = row.get("cleared_at")
        if fired <= end and (cleared is None or cleared >= start):
            out.append(row)
    return out


def alert_labels(rows: Sequence[dict]) -> List[str]:
    """Deduplicated ``rule(severity)`` labels, in firing order."""
    labels: List[str] = []
    for row in rows:
        label = f"{row.get('rule')}({row.get('severity')})"
        if label not in labels:
            labels.append(label)
    return labels


def summary_lines(rows: Sequence[dict]) -> List[str]:
    """Human-readable one-liner per alert row."""
    if not rows:
        return ["no alerts fired"]
    lines = []
    for row in rows:
        cleared = row.get("cleared_at")
        window = (
            f"t={row.get('fired_at', 0.0):.3f}s..{cleared:.3f}s"
            if isinstance(cleared, (int, float))
            else f"t={row.get('fired_at', 0.0):.3f}s.. (open)"
        )
        lines.append(
            f"[{row.get('severity')}] {row.get('rule')} on "
            f"{row.get('metric')} {window} peak={row.get('peak', 0.0):.3f} "
            f"({row.get('samples', 0)} sample(s))"
        )
    return lines
